"""Fuzzing the command line: random shift documents and block-code files.

Documents follow the shape of each kind, but any field may be replaced by
a JSON value of the wrong type.  Every command must end with exit code 0,
1 or 2; no other exception may escape ``cli.main``.  Sizes are capped
(horizon <= 6, lengths, periods and depths in -2..4, at most 3 states,
words or rules) so that no draw blows up.
"""

import contextlib
import io
import itertools
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from shiftlab import cli

SYMBOL = st.sampled_from(["0", "1", "2", "ab"])
WORD = st.one_of(st.text("01", max_size=3), st.text("01", max_size=3),
                 st.lists(SYMBOL, max_size=3))
JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 4), st.floats(-2, 4),
    st.text("01x:/", max_size=3), st.lists(st.integers(0, 1), max_size=2),
    st.dictionaries(st.text("01", max_size=2), st.integers(0, 2), max_size=2))


def maybe(strategy):
    """The well-typed value seven times in eight, any JSON value otherwise."""
    return st.sampled_from(range(8)).flatmap(lambda k: JUNK if k == 7 else strategy)


def document(kind, **fields):
    return st.fixed_dictionaries(dict({k: maybe(v) for k, v in fields.items()},
                                      kind=st.just(kind)))


ALPHABET = st.one_of(st.just(["0", "1"]),
                     st.lists(SYMBOL, min_size=1, max_size=3, unique=True))
STATE = st.sampled_from(["a", "b", "c"])
FINITE_TYPE = document("finite-type", alphabet=ALPHABET,
                       forbidden=st.lists(WORD, max_size=3))
SOFIC = document("sofic", alphabet=ALPHABET,
                 states=st.lists(STATE, min_size=1, max_size=3, unique=True),
                 edges=st.lists(st.tuples(STATE, SYMBOL, STATE).map(list),
                                max_size=6))
# beta stays below 6, so that the alphabet does too
BETA = document("beta",
                beta=st.one_of(
                    st.builds("rational:{}/{}".format, st.integers(-1, 5), st.integers(0, 3)),
                    st.builds("poly:x^2-{}x-{}@[{},{}]".format, st.integers(0, 3),
                              st.integers(0, 2), st.integers(0, 5), st.integers(0, 5)),
                    st.builds("poly:x^3-x-1@[1.{},1.{}]".format, st.integers(0, 9),
                              st.integers(0, 9)),
                    st.builds("{}.{}".format, st.integers(0, 4), st.integers(0, 99)),
                    st.text(":/-x^@[],.rational", max_size=6)),
                digits=st.integers(0, 40))
SUBSTITUTION = document("substitution",
                        rules=st.dictionaries(SYMBOL, WORD, min_size=1, max_size=3),
                        seed=SYMBOL)
EXAMPLE_NONEMPTY = document("example-nonempty",
                            lengths=st.lists(st.integers(3, 6), max_size=3))
EXAMPLE_BETASHIFT = document(
    "example-betashift", mode=st.sampled_from(["specified", "synchronized"]),
    steps=st.integers(0, 3))
SIMPLE = st.one_of(FINITE_TYPE, SOFIC, BETA, SUBSTITUTION, EXAMPLE_NONEMPTY,
                   EXAMPLE_BETASHIFT)
# well-formed induced documents over binary bases, so that `induce` and
# `speedup-compare` also get past validation to a report
BINARY_IMAGE = st.text("01", min_size=1, max_size=3)
VALID_BASE = st.one_of(
    st.fixed_dictionaries({"kind": st.just("finite-type"),
                           "alphabet": st.just(["0", "1"]),
                           "forbidden": st.lists(st.text("01", min_size=2, max_size=3),
                                                 max_size=2)}),
    st.fixed_dictionaries({"kind": st.just("substitution"),
                           "rules": st.fixed_dictionaries({"0": BINARY_IMAGE,
                                                           "1": BINARY_IMAGE}),
                           "seed": st.sampled_from(["0", "1"])}))
VALID_INDUCED = st.integers(0, 1).flatmap(lambda window: st.fixed_dictionaries(
    {"kind": st.just("induced"), "base": VALID_BASE, "window": st.just(window),
     "return_rule": st.one_of(st.just("first-return"), st.integers(1, 2))},
    optional={"clopen": st.lists(st.text("01", min_size=2 * window + 1,
                                         max_size=2 * window + 1),
                                 min_size=1, max_size=4, unique=True),
              "cap": st.integers(1, 8)}))
INDUCED = st.one_of(VALID_INDUCED, document(
    "induced", base=SIMPLE, window=st.integers(0, 1),
    return_rule=st.one_of(st.just("first-return"), st.integers(0, 3),
                          st.dictionaries(st.text("01", max_size=3),
                                          st.integers(0, 3), max_size=3)),
    clopen=st.lists(WORD, max_size=3), cap=st.integers(1, 8)))


def binary_code(radius):
    """A code file total on binary windows of the given range."""
    windows = ["".join(w) for w in itertools.product("01", repeat=2 * radius + 1)]
    return st.fixed_dictionaries(
        {"range": st.just(radius),
         "rule": st.fixed_dictionaries({w: SYMBOL for w in windows})},
        optional={"target": maybe(ALPHABET)})


CODE = maybe(st.one_of(
    binary_code(0), binary_code(1),
    st.fixed_dictionaries({"range": maybe(st.integers(0, 1)),
                           "rule": maybe(st.dictionaries(st.text("012", max_size=3),
                                                         SYMBOL, max_size=9))},
                          optional={"target": maybe(ALPHABET)})))
ANY = st.one_of(SIMPLE, INDUCED)

# argv templates with the kind of document each is meant for; DOC, OTHER,
# CODE and INVERSE name the written files
COMMANDS = [
    (["lang", "DOC", "--length"], ANY), (["complexity", "DOC"], ANY),
    (["special", "DOC", "--length"], ANY), (["mfw", "DOC"], ANY), (["ls", "DOC"], ANY),
    (["well-approx", "DOC"], ANY), (["entropy", "DOC"], ANY),
    (["periodic", "DOC", "--period"], ANY), (["nu", "DOC", "--period"], ANY),
    (["nu", "DOC", "--exact", "--compare-parry", "--period"], FINITE_TYPE),
    (["parry", "DOC", "--depth"], FINITE_TYPE),
    (["decompose", "DOC", "--code", "CODE", "--average-cutoff"], FINITE_TYPE),
    (["push", "DOC", "--code", "CODE", "--period"], FINITE_TYPE),
    (["autocheck", "DOC", "--code", "CODE", "--inverse", "INVERSE", "--period"],
     FINITE_TYPE),
    (["sofic", "det", "DOC"], SOFIC), (["sofic", "eq", "DOC", "OTHER"], SOFIC),
    (["sofic", "issft", "DOC"], SOFIC), (["sofic", "thm1", "DOC"], SOFIC),
    (["subst", "lang", "DOC", "--length"], SUBSTITUTION),
    (["subst", "profile", "DOC"], SUBSTITUTION),
    (["induce", "DOC"], INDUCED), (["speedup-compare", "DOC"], INDUCED),
]
CAPPED = ("periodic", "nu", "decompose", "push")
COMMAND = st.sampled_from(COMMANDS).flatmap(
    lambda c: st.tuples(st.just(c[0]), maybe(c[1]), maybe(c[1])))


@settings(max_examples=150, deadline=None)
@given(command=COMMAND, code=CODE, inverse=CODE, number=st.integers(-2, 4),
       horizon=st.integers(1, 6), cap=st.sampled_from([None, 1, 20]))
def test_cli_never_crashes(tmp_path_factory, command, code, inverse, number,
                           horizon, cap):
    tmp = tmp_path_factory.getbasetemp()
    command, doc, other = command
    files = {"DOC": doc, "OTHER": other, "CODE": code, "INVERSE": inverse}
    argv = []
    for token in command:
        if token in files:
            path = tmp / ("fuzz-%s.json" % token.lower())
            path.write_text(json.dumps(files[token]))
            token = str(path)
        argv.append(token)
    if argv[-1].startswith("--"):
        argv.append(str(number))
    argv += ["--horizon", str(horizon), "--format", "json"]
    if cap is not None and command[0] in CAPPED:
        argv += ["--cap", str(cap)]
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:  # argparse refuses an argv
        rc = exc.code
    assert rc in (0, 1, 2), err.getvalue()
