"""End-to-end command line checks.

Commands run in process through cli.main with stdout captured by pytest;
documents and block-code files are written to tmp_path.  Exit codes: 0 on
success, 1 on domain and file errors, 2 on usage errors.
"""

import argparse
import builtins
import contextlib
import io
import itertools
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

import shiftlab
from shiftlab import (Alphabet, FiniteTypeSpec, cli, finite_type_presentation,
                      format_word, forbidden, per_le_enumerate, shifts, sofic,
                      window_density_report)
from shiftlab import beta as beta_module

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


def _src_env():
    """The environment for a child interpreter that imports this shiftlab."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env["PYTHONPATH"] = os.pathsep.join([src] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


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


CRLF_JSON = b'{"kind":\r\n "sofic",\r\n x}'
# what follows "is not" in the error for each undecodable or malformed file
BAD_BYTES = {
    b"\xff\xfe{": "UTF-8 text: 'utf-8' codec can't decode byte 0xff in position 0: "
                  "invalid start byte",
    CRLF_JSON: "valid JSON: Expecting property name enclosed in double quotes: "
               "line 3 column 2 (char 20)",
    CRLF_JSON.replace(b"\n", b""): "valid JSON: Expecting property name enclosed in "
                                   "double quotes: line 3 column 2 (char 20)",
    b"\xef\xbb\xbf{}": "valid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig): "
                       "line 1 column 1 (char 0)",
    b"{\"range\": \xff}": "valid JSON: 'utf-8' codec can't decode byte 0xff in "
                         "position 10: invalid start byte",
}


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
    # files are read as bytes; the text must be what text mode reads, so
    # the JSON error counts one character per line break
    (CRLF_JSON, None),
    (CRLF_JSON.replace(b"\n", b""), None),
    (b"\xef\xbb\xbf{}", None),
    (json.dumps(GOLDEN_DOC), CRLF_JSON),
    (json.dumps(GOLDEN_DOC), CRLF_JSON.replace(b"\n", b"")),
    (json.dumps(GOLDEN_DOC), b"\xef\xbb\xbf{}"),
    (json.dumps(GOLDEN_DOC), b"{\"range\": \xff}"),
], ids=["not-json", "sofic-edges-not-list", "code-rule-not-object",
        "beta-rational-not-a-number", "beta-rational-zero-denominator",
        "beta-interval-not-a-number", "beta-poly-zero-denominator",
        "induced-clopen-not-list", "induced-return-time-not-int",
        "sofic-alphabet-null", "alphabet-symbols-not-strings",
        "code-target-null", "code-target-symbols-not-strings", "code-not-json",
        "not-utf8", "crlf", "cr", "bom", "code-crlf", "code-cr", "code-bom",
        "code-not-utf8"])
def test_bad_document_is_error(capsys, tmp_path, doc, code):
    p = tmp_path / "bad.json"
    p.write_bytes(doc if isinstance(doc, bytes) else doc.encode())
    argv = ["mfw", str(p)]
    if code is not None:
        c = tmp_path / "code.json"
        c.write_bytes(code if isinstance(code, bytes) else code.encode())
        argv = ["decompose", str(p), "--code", str(c)]
    rc, _, err = run(capsys, argv)
    assert rc == 1
    assert err.startswith("error:")
    bad = code if code is not None else doc
    if isinstance(bad, bytes):
        what = "shift document" if code is None else "block code"
        assert err == "error: %s is not %s\n" % (what, BAD_BYTES[bad])


@pytest.mark.parametrize("doc, code, message", [
    ({"kind": "beta", "beta": "1.8", "digits": True}, None,
     "digits must be a positive integer"),
    (dict(INDUCED_GOLDEN_DOC, window=True, return_rule=1), None,
     "window must be a nonnegative integer"),
    (dict(INDUCED_GOLDEN_DOC, return_rule=True), None,
     "return_rule must be an integer, a map, or \"first-return\""),
    (dict(INDUCED_GOLDEN_DOC, return_rule={"000": True, "001": 2, "100": 1, "101": 2}),
     None, "return_rule map values must be integers"),
    (dict(INDUCED_GOLDEN_DOC, cap=True), None, "cap must be a positive integer"),
    ({"kind": "example-nonempty", "lengths": [True, 5]}, None,
     "lengths must be a list of integers"),
    ({"kind": "example-betashift", "mode": "specified", "steps": True}, None,
     "steps must be a nonnegative integer"),
    (GOLDEN_DOC, dict(FLIP_CODE, range=True), "range must be a nonnegative integer"),
], ids=["digits", "window", "return-rule", "return-rule-map-value", "cap", "lengths",
        "steps", "range"])
def test_json_boolean_is_no_integer(capsys, write, doc, code, message):
    # bool is a subclass of int in Python; JSON's true is not the integer 1
    argv = ["mfw", write("bool.json", doc), "--horizon", "4"]
    if code is not None:
        argv = ["decompose", argv[1], "--code", write("code.json", code)]
    rc, out, err = run(capsys, argv)
    assert (rc, out, err) == (1, "", "error: shift document: %s\n" % message)


def test_oversized_example_words_are_refused(capsys, write, monkeypatch):
    # the words 02220 and 011110 spell 11 letters
    monkeypatch.setattr(forbidden, "LETTER_LIMIT", 10)
    doc = write("ne.json", {"kind": "example-nonempty", "lengths": [5, 6]})
    rc, out, err = run(capsys, ["ls", doc, "--horizon", "5"])
    assert (rc, out) == (1, "")
    assert err == "error: 11 letters in the forbidden words exceed the limit 10\n"
    monkeypatch.setattr(forbidden, "LETTER_LIMIT", 11)
    assert run_json(capsys, ["ls", doc, "--horizon", "5"])["ls_set"] == [5]


@pytest.mark.parametrize("doc", [
    {"kind": "example-nonempty", "lengths": [12]},
    {"kind": "finite-type", "alphabet": ["0", "1"], "forbidden": ["0" * 12]},
], ids=["example-nonempty", "finite-type"])
def test_long_state_names_are_refused_before_spelling(capsys, write, monkeypatch, doc):
    # a word of length 12 names its trie nodes with 1 + 2 + ... + 12 = 78 letters
    monkeypatch.setattr(sofic, "LETTER_LIMIT", 77)
    rc, out, err = run(capsys, ["ls", write("long.json", doc), "--horizon", "5"])
    assert (rc, out) == (1, "")
    assert err == ("error: the state names of the finite-type presentation exceed"
                   " the limit of 77 letters\n")
    monkeypatch.setattr(sofic, "LETTER_LIMIT", 78)
    assert run_json(capsys, ["ls", write("long.json", doc), "--horizon", "5"])["ls_set"] == []


def _induced_chain(depth):
    """A chain of ``depth`` induced documents over the one-letter full
    shift, as text: ``json.dumps`` itself would overflow on deep ones."""
    head = '{"kind": "induced", "window": 0, "return_rule": 1, "base": '
    leaf = '{"kind": "finite-type", "alphabet": ["a"], "forbidden": []}'
    return head * depth + leaf + "}" * depth


@pytest.mark.parametrize("doc, code, what", [
    ("[" * 100000 + "]" * 100000, None, "shift document"),
    (_induced_chain(3000), None, "shift document"),
    (_induced_chain(500), None, "shift document"),
    (json.dumps(FULL2_DOC), "[" * 100000 + "]" * 100000, "block code"),
], ids=["deep-list", "induced-chain-3000", "induced-chain-500", "deep-code"])
def test_too_deeply_nested_input_is_error(capsys, tmp_path, doc, code, what):
    p = tmp_path / "deep.json"
    p.write_text(doc)
    argv = ["lang", str(p), "--length", "2"]
    if code is not None:
        c = tmp_path / "code.json"
        c.write_text(code)
        argv = ["push", str(p), "--code", str(c)]
    rc, out, err = run(capsys, argv)
    assert (rc, out) == (1, "")
    assert err == "error: %s is nested too deeply\n" % what


@pytest.mark.parametrize("argv, count", [
    (["lang", "DOC", "--length", "1500", "--horizon", "1500"], 2),
    (["special", "DOC", "--length", "1500", "--horizon", "1501"], 0),
], ids=["lang", "special"])
def test_long_listing_on_a_periodic_shift(capsys, write, argv, count):
    # 1,500 levels of two words each, built without recursing per level
    doc = write("p2.json", {"kind": "sofic", "alphabet": ["0", "1"], "states": ["a", "b"],
                            "edges": [["a", "0", "b"], ["b", "1", "a"]]})
    report = run_json(capsys, [doc if a == "DOC" else a for a in argv])
    words = report["words"] if argv[0] == "lang" else report["left_special"]
    assert len(words) == count
    assert argv[0] == "special" or words == ["01" * 750, "10" * 750]


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
    ["beta", "mfw", "1.8", "--horizon", "0"],
    ["autocheck", "FULL2", "--code", "FLIP", "--inverse", "FLIP", "--depth", "-1"],
], ids=["special-negative-length", "lsdiag-zero-horizon",
        "lsdiag-negative-horizon", "beta-mfw-zero-horizon", "autocheck-negative-depth"])
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


def _every_command(write):
    """One plain argv of each command, over finite-type, sofic,
    substitution and induced documents."""
    golden, full2 = write("g.json", GOLDEN_DOC), write("f2.json", FULL2_DOC)
    flip, even = write("flip.json", FLIP_CODE), write("e.json", EVEN_DOC)
    fib, induced = write("fib.json", FIB_DOC), write("i.json", INDUCED_GOLDEN_DOC)
    argvs = [[c, golden] for c in ("lang", "complexity", "special", "mfw", "ls",
                                   "well-approx", "entropy", "periodic", "nu", "parry")]
    argvs += [["decompose", golden, "--code", flip], ["push", golden, "--code", flip],
              ["autocheck", full2, "--code", flip, "--inverse", flip]]
    argvs += [["beta", c, GOLDEN_BETA] for c in ("expand", "mfw", "lsdiag", "graph")]
    argvs += [["beta", "example"], ["subst", "lang", fib], ["subst", "profile", fib],
              ["induce", induced], ["speedup-compare", induced], ["sofic", "eq", even, even]]
    argvs += [["sofic", c, even] for c in ("det", "issft", "thm1")] + [["tau", "3"]]
    assert sorted(tuple(a[:2]) if a[0] in ("beta", "subst", "sofic") else (a[0],)
                  for a in argvs) == sorted(cli.COMMANDS)
    return argvs


def test_plain_argv_builds_no_parser(capsys, write, monkeypatch):
    golden = write("g.json", GOLDEN_DOC)
    argvs = _every_command(write)
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    cli.build_parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for argv in argvs:
        assert run(capsys, argv)[0] == 0, argv
    assert built == []
    assert run_any(capsys, ["lang", golden, "--format", "yaml"])[0] == 2
    assert len(built) == 31         # the top parser, three groups and 27 commands
    assert run_any(capsys, ["tau", "x"])[0] == 2
    assert len(built) == 31


def test_first_report_of_a_process_peaks_below_a_tenth_of_a_mib(write):
    # the modules the report reads are imported first, so the peak is the
    # report's own work and not their compile
    doc = write("golden.json", GOLDEN_DOC)
    script = ("import sys, tracemalloc\n"
              "from shiftlab import cli\n"
              "import shiftlab.shifts\n"
              "tracemalloc.start()\n"
              "rc = cli.main(sys.argv[1:])\n"
              "print(rc, tracemalloc.get_traced_memory()[1], file=sys.stderr)\n")
    proc = subprocess.run([sys.executable, "-c", script, "entropy", doc], env=_src_env(),
                          capture_output=True, text=True, timeout=120)
    rc, peak = proc.stderr.split()
    assert rc == "0" and int(peak) < 0.1 * 2 ** 20, peak


def test_a_whole_process_keeps_only_the_modules_its_report_read(write):
    # traced from before the first import: 1.31-1.33 MiB still held when
    # every module is imported, 1.14-1.17 MiB without beta, algebraic and
    # dynamics (with and without bytecode)
    doc = write("golden.json", GOLDEN_DOC)
    script = ("import sys, tracemalloc\n"
              "tracemalloc.start()\n"
              "from shiftlab import cli\n"
              "rc = cli.main(sys.argv[1:])\n"
              "print(rc, tracemalloc.get_traced_memory()[0], file=sys.stderr)\n")
    proc = subprocess.run([sys.executable, "-c", script, "entropy", doc], env=_src_env(),
                          capture_output=True, text=True, timeout=120)
    rc, held = proc.stderr.split()
    assert rc == "0" and int(held) < 1.25 * 2 ** 20, held


# ---- plain argv and the JSON writer --------------------------------------------

LEAVES = sorted(cli.COMMANDS)
VALUE = st.one_of(st.integers(0, 30).map(str), st.integers(-3, 30).map(str), st.sampled_from(
    ["text", "json", "yaml", "specified", "synchronized", "n", "x", "", "1.5",
     "g.json", "rational:5/2", "0x10"]))
ODD = st.sampled_from(["-h", "--help", "--", "--horizon=3", "--hor", "--form", "-"])


def _rest(words):
    """Argument lists for one command: its positionals and required options,
    then options with and without values, positionals, and what argparse
    alone reads, all shuffled."""
    arguments = cli.COMMANDS[words][2]
    options = st.sampled_from(sorted(name for name, _ in arguments if name.startswith("-")))
    needed = [st.tuples(st.just(name), VALUE) if name.startswith("-") else st.tuples(VALUE)
              for name, spec in arguments
              if spec.get("required") or not name.startswith("-")]
    piece = st.one_of(st.tuples(options, VALUE), st.tuples(options),
                      st.tuples(VALUE), st.tuples(ODD))
    pieces = st.tuples(st.tuples(*needed), st.lists(piece, max_size=5)).flatmap(
        lambda parts: st.permutations(list(parts[0]) + parts[1]))
    return pieces.map(lambda ps: [t for p in ps for t in p])


ARGV = st.sampled_from(LEAVES).flatmap(lambda w: st.tuples(st.just(w), _rest(w)))


def _tree_leaf(words):
    """The parser of the command ``words`` in the argparse tree."""
    parser = cli.build_parser()
    for word in words:
        group, = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        parser = group.choices[word]
    return parser


def _parsed(parse, argv):
    """(exit code, stdout, stderr, Namespace) of ``parse(argv)``; the exit
    code is None when it returns."""
    out, err = io.StringIO(), io.StringIO()
    args = code = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            args = parse(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue(), args


def _argparse_main(argv):
    """How ``main`` read argv before it read plain argvs: the top parser
    routes everything, and a missing command is a usage error (2)."""
    parser = cli.build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "func"):
        parser.print_usage(sys.stderr)
        return 2
    return args


@settings(max_examples=300, deadline=None)
@given(drawn=ARGV)
def test_plain_read_matches_argparse(drawn):
    words, rest = drawn
    args = cli._read(words, rest)
    if args is None:
        return
    expected = _parsed(_tree_leaf(words).parse_args, rest)
    routed = _parsed(cli.build_parser().parse_args, list(words) + rest)
    assert expected[:3] == routed[:3] == (None, "", "")
    assert args == routed[3]
    assert vars(expected[3]) == {
        k: v for k, v in vars(args).items() if not k.endswith("command")}


USAGE_ERRORS = [
    [], ["beta"], ["beta", "nosuch"], ["nosuch"], ["-h"], ["--format", "json"],
    ["lang", "g.json", "--format", "yaml"], ["lang", "g.json", "--cap", "5"],
    ["tau", "3", "--horizon", "4"], ["beta", "expand", GOLDEN_BETA, "--horizon", "3"],
    ["decompose", "g.json", "--code", "f.json", "--tol", "1e-3"],
    ["autocheck", "g.json", "--code", "f.json", "--inverse", "f.json", "--cap", "5"],
    ["lang", "g.json", "--horizon"], ["lang", "--length", "4"], ["lang", "a", "b"],
    ["sofic", "eq", "g.json"], ["decompose", "g.json"], ["tau", "x"],
    ["beta", "example", "--mode", "free"], ["nu", "g.json", "--exact=1"],
    ["lang", "g.json", "--horizon", "3.5"], ["lang", "g.json", "-h"],
]


def _outcome(parse, argv):
    """(exit code or what ``parse`` returned, stdout, stderr)."""
    code, out, err, result = _parsed(parse, argv)
    return (result if code is None else code), out, err


def _same_as_argparse(argv):
    """When argparse refuses ``argv`` or prints help, ``main`` does the same."""
    expected = _outcome(_argparse_main, argv)
    if not isinstance(expected[0], argparse.Namespace):
        assert _outcome(cli.main, argv) == expected
    return expected[0]


@pytest.mark.parametrize("argv", USAGE_ERRORS, ids=" ".join)
def test_usage_error_is_argparse_s(argv):
    assert _same_as_argparse(argv) in (0, 2)


@settings(max_examples=200, deadline=None)
@given(drawn=ARGV)
def test_drawn_usage_error_is_argparse_s(drawn):
    words, rest = drawn
    _same_as_argparse(list(words) + rest)


def test_every_benchmark_argv_is_plain(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(__file__), os.pardir,
                                             "perfbench"))
    import workloads
    argvs = [report.argv + ["--format", "json"] for name in workloads.PLANS
             for report in workloads.build(name, 1, str(tmp_path)).reports]
    assert len(argvs) >= 417
    for argv in argvs:
        words = tuple(argv[:1]) if tuple(argv[:1]) in cli.COMMANDS else tuple(argv[:2])
        args = cli._read(words, argv[len(words):])
        assert args is not None, argv
        assert args == cli.build_parser().parse_args(argv)


KEY = st.one_of(st.text(), st.integers(), st.floats(), st.booleans(), st.none())
TEXT = st.one_of(st.text(), st.text(st.sampled_from('a"\\/\n\t\x00\x1f\x7f\xe9\u2028\U0001f600')))
JSON_SCALAR = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-2 ** 200, 2 ** 200), st.floats(),
    st.sampled_from([-0.0, 5e-324, -2.2e-308, 1e308, math.nan, math.inf, -math.inf]),
    TEXT, st.sampled_from([Fraction(1, 3), b"x", {1}]))
JSON_VALUE = st.recursive(JSON_SCALAR, lambda inner: st.one_of(
    st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
    st.dictionaries(TEXT, inner, max_size=4), st.dictionaries(st.integers(), inner, max_size=4),
    st.dictionaries(st.one_of(st.integers(), st.floats()), inner, max_size=4),
    st.dictionaries(KEY, inner, max_size=3),
    st.dictionaries(st.tuples(st.integers()), inner, min_size=1, max_size=1)), max_leaves=20)


def _written(write, obj):
    try:
        return write(obj)
    except TypeError as exc:
        return "TypeError: %s" % (exc,)


@settings(max_examples=500, deadline=None)
@given(obj=JSON_VALUE)
def test_json_writer_is_json_dumps(obj):
    assert _written(cli._json, obj) == _written(
        lambda o: json.dumps(o, sort_keys=True, indent=2), obj)


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
    assert sum(len(o) for o in options.values()) == 78
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


def identity_code(radius):
    """The identity on binary sequences as a code of the given range."""
    return {"range": radius,
            "rule": {"".join(w): w[radius]
                     for w in itertools.product("01", repeat=2 * radius + 1)}}


# a binary table to depth 28 would hold 2^29 - 1 cylinders; depth 19 is
# the first past the limit
DEEP = "1048575 cylinders of depth <= 19"
DIGITS = "the decimal digits of a report integer"


@pytest.mark.parametrize("argv, what", [
    # beta 3000 is the full 3000-shift, so 9,000,000 words of length 2:
    # they are counted on oracle states and refused before any is listed
    (["lang", "BETA", "--length", "2"], "9000000 words of length 2"),
    (["special", "BETA", "--length", "1"], "9000000 words of length 2"),
    (["nu", "GOLDEN", "--depth", "28"], DEEP),
    (["nu", "GOLDEN", "--compare-parry", "--depth", "28"], DEEP),
    (["push", "GOLDEN", "--code", "ID0", "--depth", "28"], DEEP),
    (["autocheck", "GOLDEN", "--code", "ID0", "--inverse", "ID0", "--depth", "28"], DEEP),
    (["decompose", "GOLDEN", "--code", "ID0", "--depth", "28"], DEEP),
    (["parry", "GOLDEN", "--depth", "28"], DEEP),
    # parry lists the allowed (memory-1)-words as its stationary keys
    (["parry", "LONG"], "625229555 words of length 19"),
    # the inverse-pair certificate reads every word of length 4(6+6)+1
    (["autocheck", "FULL2", "--code", "ID6", "--inverse", "ID6", "--horizon", "60"],
     "562949953421312 words of length 49"),
    # window 7 over the full 4-shift: every report lists the 15-windows
    # as superletters, and the oracle refuses the listing itself
    (["induce", "WIDE"], "1073741824 words of length 15"),
    (["lang", "WIDE"], "1073741824 words of length 15"),
    (["speedup-compare", "WIDE"], "1073741824 words of length 15"),
    # the example stream is sized from its length recurrence and refused
    # past the cylinder tables' letter limit, 10 * WORD_LIMIT digits
    (["beta", "example", "--steps", "40"], "7696581394388 digits after 40 steps"),
    (["ls", "EX40"], "7696581394388 digits after 40 steps"),
    # the interpreter converts no int of more digits than its limit to a
    # string: tau is refused before it is computed, the others while their
    # report is rendered, before any of it is written
    (["tau", "340"], DIGITS),
    (["tau", "10000000"], DIGITS),
    (["complexity", "FULL10", "--horizon", "4300"], DIGITS),
    (["nu", "GOLDEN", "--period", "21000", "--depth", "1"], DIGITS),
    # a count with more digits than the interpreter converts is named by
    # its order of magnitude; the example's lengths are a lower bound from
    # the first length past that limit on
    (["lang", "FULL10", "--length", "4400", "--horizon", "4400"],
     "at least 10^4400 words of length 4400"),
    (["special", "FULL10", "--length", "4400", "--horizon", "4401"],
     "at least 10^4401 words of length 4401"),
    (["beta", "example", "--steps", "20000"], "at least 10^4300 digits after 20000 steps"),
    (["beta", "example", "--steps", "100000"], "at least 10^4300 digits after 100000 steps"),
], ids=["lang", "special", "nu", "nu-parry", "push", "autocheck", "decompose",
        "parry", "parry-stationary", "autocheck-certificate", "induce-window-7",
        "lang-window-7", "speedup-compare-window-7", "beta-example-steps-40",
        "example-betashift-steps-40", "tau-340", "tau-10000000",
        "complexity-full-10-shift", "nu-period-21000", "lang-count-past-4300-digits",
        "special-count-past-4300-digits", "beta-example-steps-20000",
        "beta-example-steps-100000"])
def test_word_listing_refused_past_the_limit(capsys, write, argv, what):
    docs = {"BETA": {"kind": "beta", "beta": "3000"}, "GOLDEN": GOLDEN_DOC,
            "FULL2": FULL2_DOC, "LONG": {"kind": "example-nonempty", "lengths": [3, 12, 20]},
            "WIDE": {"kind": "induced", "window": 7, "return_rule": 1,
                     "base": {"kind": "finite-type", "alphabet": list("0123"),
                              "forbidden": []}},
            "EX40": {"kind": "example-betashift", "mode": "specified", "steps": 40},
            "FULL10": {"kind": "finite-type", "alphabet": list("0123456789"),
                       "forbidden": []},
            "ID0": identity_code(0), "ID6": identity_code(6)}
    argv = [write(t.lower() + ".json", docs[t]) if t in docs else t for t in argv]
    limit = (sys.get_int_max_str_digits() if what == DIGITS
             else 10 * cli.WORD_LIMIT if " digits " in what else cli.WORD_LIMIT)
    start = time.perf_counter()
    rc, out, err = run(capsys, argv)
    assert time.perf_counter() - start < 2.0
    assert rc == 1 and out == ""
    assert err.strip() == "error: %s exceed the limit %d" % (what, limit)


def test_one_letter_cylinder_table_refused_by_its_letters(capsys, write):
    # 100,001 cylinders are within the word limit, but their letters
    # pass 10 * WORD_LIMIT from depth 4,472 on
    doc = write("one.json", {"kind": "finite-type", "alphabet": ["0"], "forbidden": []})
    rc, out, err = run(capsys, ["nu", doc, "--depth", "100000"])
    assert rc == 1 and out == ""
    assert err == ("error: 10001628 letters in the cylinders of depth <= 4472 "
                   "exceed the limit 10000000\n")


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


def test_ls_and_thm1_even_at_4000_match_the_full_scan(capsys, write):
    # both reports scan one period of the LS set's block; the scan over
    # every window at horizon 4000 gives the same densities
    doc = write("e.json", EVEN_DOC)
    odd = list(range(3, 4000, 2))
    _, max_gap, densities = window_density_report(odd, 4000)
    expect = {str(k): densities[k] for k in sorted(densities)}
    report = run_json(capsys, ["ls", doc, "--horizon", "4000"])
    assert report["ls_set"] == odd
    assert report["max_gap"] == max_gap
    assert report["window_densities"] == expect
    report = run_json(capsys, ["sofic", "thm1", doc, "--horizon", "4000"])
    assert report["mfw_lengths"] == odd
    assert report["window_densities"] == expect
    assert report["density_lower_bound"] == max(densities.values())


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
    assert report["rate"] == "3"
    # the rate prints as parsed, so every spelling of a rate gives one report
    assert run_json(capsys, ["well-approx", doc, "--rate", "+3", "--horizon", "9"]) == report
    assert run_json(capsys, ["well-approx", doc, "--rate", "00"])["rate"] == "0"


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
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(argvs)],
                          env=_src_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


PUBLIC = """
AlgebraicNumber Alphabet AlphabetMismatchError AmbiguousDigitError BlockCode
BlockGraph CannotCloseError ConvergenceError CylinderMeasure DigitStream
EmptyShiftError EmptySupportError EnumerationCapError FiniteTypeSpec
HorizonExceededError InducedSpec InfeasibleSetError InsufficientDigitsError LSReport
LabeledGraph LanguageOracle MFWTable NonGrowingSubstitutionError
NotAnAutomorphismError RealizedShift ReducibleGraphError ReturnTimeCapError
ShiftDocument ShiftlabError Substitution UndefinedEntropyError UnsupportedSpecError
WrongStatusError apply_block_code automorphism_invariance_check beta_algebraic
beta_decimal beta_expand beta_ls_diagnostic beta_mfw beta_oracle beta_presentation
beta_rational beta_stream bispecial_lengths build_block_graph cassaigne_profile
complexity compose_codes cylinder_table determinize document_from_object
eval_cylinder example_betashift example_nonempty_shift finite_type_presentation
format_word full_shift induce_recode induced_data is_sft language_equal_exact
language_equal_up_to load_shift_document ls_report make_labeled_graph
max_entropy_decomposition mfw_length_set minimal_forbidden minimal_forbidden_lengths
mu_y_average nu_cylinder_measure nu_point_measure parry_cylinders parry_measure
parse_beta_spec parse_block_code parse_shift_document per_count per_le_enumerate
periodic_count_le periodic_counts periodic_points_le prune_labeled realize
scc_subgraphs serialize_shift_document sft_cover sft_entropy sft_oracle
shift_entropy sofic_entropy sofic_oracle special_words speedup_gap_compare
star_expansion stepping_oracle stream_alphabet subst_oracle tau_eval
theorem1_diagnostic weak_star_distance well_approx_check window_density_report
""".split()


def test_public_names_are_their_defining_modules_objects():
    assert sorted(shiftlab.__all__) == PUBLIC
    assert set(PUBLIC) <= set(dir(shiftlab)) and shiftlab.__version__ == "0.1.0"
    for name in PUBLIC:
        obj = getattr(shiftlab, name)
        assert obj.__module__.startswith("shiftlab."), name
        assert vars(sys.modules[obj.__module__])[name] is obj, name
    with pytest.raises(AttributeError):
        shiftlab.no_such_name
    script = ("from shiftlab import *\n"
              "import shiftlab\n"
              "print(sorted(n for n in shiftlab.__all__\n"
              "             if globals().get(n) is not getattr(shiftlab, n)))\n")
    proc = subprocess.run([sys.executable, "-c", script], env=_src_env(),
                          capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr


_CORE = ["cli", "errors", "language", "record"]
_REALIZED = _CORE + ["forbidden", "graph", "measures", "sft", "shifts", "sofic", "spectral"]


@pytest.mark.parametrize("argv, loaded", [
    ([], _CORE),
    (["entropy", "GOLDEN"], _REALIZED),
    (["beta", "expand", GOLDEN_BETA],
     _CORE + ["algebraic", "beta", "forbidden", "graph", "sft", "spectral"]),
    (["subst", "lang", "FIB"], _REALIZED + ["dynamics"]),
], ids=["build-parser", "entropy", "beta-expand", "subst-lang"])
def test_a_fresh_process_loads_only_the_modules_its_report_reads(write, argv, loaded):
    # with no argv the process builds the parser, as help and usage do
    files = {"GOLDEN": write("golden.json", GOLDEN_DOC), "FIB": write("fib.json", FIB_DOC)}
    script = ("import sys\n"
              "from shiftlab import cli\n"
              "rc = cli.main(sys.argv[1:]) if sys.argv[1:] else cli.build_parser() and 0\n"
              "print(rc, *sorted(m for m in sys.modules if m.startswith('shiftlab.')),\n"
              "      file=sys.stderr)\n")
    proc = subprocess.run([sys.executable, "-c", script] + [files.get(a, a) for a in argv],
                          env=_src_env(), capture_output=True, text=True, timeout=120)
    assert proc.stderr.split() == ["0"] + sorted("shiftlab." + m for m in loaded), proc.stderr


def test_a_warm_report_runs_no_import_statement(capsys, write, monkeypatch):
    # handlers and realizers read their modules through shiftlab._module,
    # a cached lookup once warm: an import statement would run the import
    # machinery in every report, 10-25 us each on a freshly collected heap
    argvs = _every_command(write) + [
        ["lang", write(name, doc)] for name, doc in (
            ("b.json", {"kind": "beta", "beta": GOLDEN_BETA}),
            ("x.json", {"kind": "example-betashift", "mode": "specified", "steps": 2}))]
    for argv in argvs:
        assert run(capsys, argv)[0] == 0, argv
    imported = []
    real = builtins.__import__

    def counting(name, *args, **kwargs):
        imported.append(name)
        return real(name, *args, **kwargs)

    monkeypatch.setattr(builtins, "__import__", counting)
    for argv in argvs:
        assert run(capsys, argv)[0] == 0, argv
    assert imported == []


def test_start_up_loads_no_dataclass_machinery():
    # a fresh process that imports the CLI and builds its parser loads
    # neither dataclasses nor the modules it pulls in
    script = ("import sys\n"
              "from shiftlab import cli\n"
              "cli.build_parser()\n"
              "print(sorted({'dataclasses', 'inspect', 'ast', 'dis', 'tokenize'}"
              " & set(sys.modules)))\n")
    proc = subprocess.run([sys.executable, "-c", script], env=_src_env(),
                          capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr


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
    # shift up to period 30: counted, so no point is listed or tabulated
    def forbidden(*args):
        raise AssertionError("a point list was built")
    for name in ("shifts.per_le_enumerate", "shifts.nu_point_measure",
                 "measures.nu_point_measure"):
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
    ["nu", "DOC", "--period", "12", "--depth", "3"],
    ["push", "DOC", "--code", "FLIP", "--period", "12", "--depth", "3"],
], ids=["nu", "push"])
def test_enumerated_and_counted_nu_print_the_same_table(capsys, write, argv):
    # the golden mean shift as a sofic document (points enumerated) and as
    # a finite-type document (points counted)
    sofic = {"kind": "sofic", "alphabet": ["0", "1"], "states": ["a", "b"],
             "edges": [["a", "0", "a"], ["a", "1", "b"], ["b", "0", "a"]]}
    flip = write("flip.json", FLIP_CODE)
    reports = [run_json(capsys, [{"DOC": write("doc.json", doc), "FLIP": flip}.get(a, a)
                                 for a in argv])
               for doc in (sofic, GOLDEN_DOC)]
    enumerated, counted = reports
    assert len(counted["cylinders_exact"]) == 15
    assert enumerated["cylinders"] == counted["cylinders"]
    assert enumerated["cylinders_exact"] == counted["cylinders_exact"]


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


@pytest.mark.parametrize("spec", [GOLDEN_BETA, SILVER_LIKE_BETA, "poly:x^2-2x-2@[2,3]",
                                  "poly:x^3-x^2-x-1@[1.8,1.9]"],
                         ids=["golden", "silver-like", "1+sqrt3", "tribonacci"])
def test_parry_beta_mfw_same_on_both_machines(capsys, write, spec):
    # both commands walk the beta document's oracle, which steps on its
    # presentation; test_beta_mfw_matches_the_stream_alone checks it
    # against the digits alone
    path = write("b.json", {"kind": "beta", "beta": spec})
    for fmt in ("text", "json"):
        rc, direct, _ = run(capsys, ["beta", "mfw", spec, "--horizon", "40", "--format", fmt])
        assert rc == 0
        rc, via_document, _ = run(capsys, ["mfw", path, "--horizon", "40", "--format", fmt])
        assert rc == 0
        assert direct == via_document
    assert json.loads(direct)["table"]


@pytest.mark.parametrize("spec", ["1.8", "rational:5/2", SILVER_LIKE_BETA])
def test_beta_mfw_past_64_digits_matches_the_document(capsys, write, spec):
    # both expand max(64, horizon + 2) digits, so neither runs out at 100
    path = write("b.json", {"kind": "beta", "beta": spec})
    rc, direct, _ = run(capsys, ["beta", "mfw", spec, "--horizon", "100"])
    assert rc == 0
    rc, via_document, _ = run(capsys, ["mfw", path, "--horizon", "100"])
    assert (rc, direct) == (0, via_document)


def _patch_beta_oracle(monkeypatch, oracle):
    """``beta.beta_oracle`` replaced by ``oracle`` wherever a module of
    the package holds it."""
    for name in ("beta", "shifts", "cli"):
        module = sys.modules["shiftlab." + name]
        if hasattr(module, "beta_oracle"):
            monkeypatch.setattr(module, "beta_oracle", oracle)


@pytest.mark.parametrize("spec", [GOLDEN_BETA, SILVER_LIKE_BETA,
                                  "poly:x^3-x^2-x-1@[1.8,1.9]"],
                         ids=["golden", "silver-like", "tribonacci"])
def test_closing_beta_mfw_walks_the_presentation(capsys, monkeypatch, spec):
    def refuse(stream, horizon):
        raise AssertionError("a closing expansion stepped on its digit rule")

    _patch_beta_oracle(monkeypatch, refuse)
    report = run_json(capsys, ["beta", "mfw", spec, "--horizon", "30"])
    assert report["table"]


def test_truncated_beta_mfw_walks_the_digit_rule(capsys, monkeypatch):
    calls = []
    digit_rule = beta_module.beta_oracle

    def counting(stream, horizon):
        calls.append(horizon)
        return digit_rule(stream, horizon)

    _patch_beta_oracle(monkeypatch, counting)
    report = run_json(capsys, ["beta", "mfw", "1.8", "--horizon", "12"])
    assert (calls, report["horizon"]) == ([12], 12)


def _beta_specs():
    rational = st.tuples(st.integers(2, 60), st.integers(1, 12)).filter(
        lambda pq: 1 < Fraction(*pq) < 6).map(lambda pq: "rational:%d/%d" % pq)
    decimal = st.tuples(st.integers(1, 5), st.text("0123456789", min_size=1, max_size=3)).filter(
        lambda parts: Fraction("%d.%s" % parts) > 1).map(lambda parts: "%d.%s" % parts)
    closing = st.sampled_from([GOLDEN_BETA, SILVER_LIKE_BETA, "poly:x^2-2x-2@[2,3]",
                               "poly:x^3-x^2-x-1@[1.8,1.9]"])
    return st.one_of(rational, decimal, closing)


@settings(max_examples=60, deadline=None)
@given(spec=_beta_specs(), horizon=st.integers(1, 40))
def test_beta_mfw_matches_the_stream_alone(spec, horizon):
    # ``beta_mfw`` reads the words off the digits, with no oracle
    table = beta_module.beta_mfw(beta_module.beta_stream(spec, horizon).working_stream(),
                                 horizon)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(["beta", "mfw", spec, "--horizon", str(horizon), "--format", "json"])
    assert rc == 0
    assert json.loads(out.getvalue()) == {
        "horizon": horizon,
        "table": {str(n): [format_word(w) for w in table.by_length[n]]
                  for n in sorted(table.by_length)},
        "note": "evidence at horizon %d" % horizon}


def test_beta_lsdiag_past_64_digits(capsys):
    report = run_json(capsys, ["beta", "lsdiag", "1.8", "--horizon", "100"])
    assert report["horizon"] == 100
    assert report["d0_positions"][-1] < 100


def test_beta_mfw_takes_no_digit_count(capsys):
    rc, out, err = run_any(capsys, ["beta", "mfw", "1.8", "--digits", "80"])
    assert (rc, out) == (2, "")
    assert "unrecognized arguments: --digits 80" in err


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


def _count_density_scans(monkeypatch):
    calls = []
    scan = forbidden.window_density_report

    def counting(*args, **kwargs):
        calls.append(args)
        return scan(*args, **kwargs)

    monkeypatch.setattr(forbidden, "window_density_report", counting)
    return calls


def test_speedup_compare_scans_no_densities(capsys, write, monkeypatch):
    # the report prints both LS sets and neither's densities
    doc = write("ind.json", INDUCED_FIB_DOC)
    calls = _count_density_scans(monkeypatch)
    rc, _, err = run(capsys, ["speedup-compare", doc, "--horizon", "14"])
    assert (rc, err, calls) == (0, "", [])


def test_ls_scans_densities_once(capsys, write, monkeypatch):
    doc = write("even.json", EVEN_DOC)
    calls = _count_density_scans(monkeypatch)
    report = run_json(capsys, ["ls", doc, "--horizon", "41"])
    assert report["max_gap"] == 2
    assert calls == [(tuple(range(3, 42, 2)), 41, (4, 2))]


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
    env = _src_env()
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
