import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftlab import (Alphabet, EnumerationCapError, UnsupportedSpecError,
                      beta_oracle, complexity,
                      document_from_object, load_shift_document,
                      minimal_forbidden, minimal_forbidden_lengths,
                      parse_block_code, parse_shift_document, periodic_points_le,
                      prune_labeled, realize, serialize_shift_document,
                      shift_entropy, shifts)

GOLDEN = (1 + math.sqrt(5)) / 2

GOLDEN_DOC = {"kind": "finite-type", "alphabet": ["0", "1"],
              "forbidden": ["11"], "label": "golden"}
EVEN_DOC = {"kind": "sofic", "alphabet": ["0", "1"], "states": ["e", "o"],
            "edges": [["e", "0", "e"], ["e", "1", "o"], ["o", "1", "e"]]}
FIB_DOC = {"kind": "substitution", "rules": {"0": "01", "1": "0"}, "seed": "0"}


def test_parse_round_trip():
    doc = document_from_object(GOLDEN_DOC)
    assert doc.kind == "finite-type"
    assert doc.label == "golden"
    text = serialize_shift_document(doc)
    again = parse_shift_document(text)
    assert again == doc
    assert serialize_shift_document(again) == text


def test_parse_rejections():
    with pytest.raises(UnsupportedSpecError):
        parse_shift_document("not json at all {")
    with pytest.raises(UnsupportedSpecError):
        document_from_object({"kind": "weird"})
    with pytest.raises(UnsupportedSpecError):
        document_from_object({"kind": "finite-type", "alphabet": ["0"],
                              "forbidden": [], "extra": 1})
    with pytest.raises(UnsupportedSpecError):
        document_from_object({"kind": "beta", "beta": "2", "digits": 0})
    with pytest.raises(UnsupportedSpecError):
        document_from_object(["kind", "sofic"])


def test_load_shift_document(tmp_path):
    p = tmp_path / "g.shift"
    p.write_text(json.dumps(GOLDEN_DOC))
    doc = load_shift_document(str(p))
    assert doc.payload["forbidden"] == ["11"]


def test_realize_finite_type():
    r = realize(document_from_object(GOLDEN_DOC), 12)
    assert r.oracle.contains(("0", "1", "0"))
    assert not r.oracle.contains(("1", "1"))
    assert r.spec.forbidden == frozenset([("1", "1")])
    assert shift_entropy(r) == pytest.approx(math.log(GOLDEN), abs=1e-9)
    assert r.block_graph() is r.block_graph()


def test_realize_rejects_bad_horizon():
    with pytest.raises(UnsupportedSpecError):
        realize(document_from_object(GOLDEN_DOC), 0)


def test_realize_sofic():
    r = realize(document_from_object(EVEN_DOC), 12)
    assert r.labeled is not None
    assert r.oracle.contains(("0", "1", "1", "0"))
    assert not r.oracle.contains(("0", "1", "0"))
    pts = periodic_points_le(r, 2)
    assert sorted(pts) == [(("0",), 1), (("1",), 1)]
    with pytest.raises(UnsupportedSpecError):
        r.block_graph()


@pytest.mark.parametrize("doc, listed", [(GOLDEN_DOC, 32), (EVEN_DOC, 31)],
                         ids=["finite-type", "sofic"])
def test_periodic_points_le_refuses_past_the_cap_while_walking(doc, listed,
                                                               monkeypatch):
    # no trace count first, on finite-type data either: the enumerator
    # walks until it holds cap + 1 points and refuses there
    r = realize(document_from_object(doc), 8)
    monkeypatch.setattr("shiftlab.shifts.periodic_counts", None)
    assert len(periodic_points_le(r, 6, cap=50)) == listed
    with pytest.raises(EnumerationCapError, match=r"^per_<=30 exceeds the cap 50$"):
        periodic_points_le(r, 30, cap=50)


def test_realize_beta_golden():
    doc = document_from_object({"kind": "beta",
                                "beta": "poly:x^2-x-1@[1.5,1.7]"})
    r = realize(doc, 12)
    assert r.expansion.status == "finite"
    assert r.stream.prefix(4) == (1, 0, 1, 0)
    assert r.labeled is not None
    assert shift_entropy(r) == pytest.approx(math.log(GOLDEN), abs=1e-9)
    assert not r.oracle.contains(("1", "1"))


TRIBONACCI = "poly:x^3-x^2-x-1@[1.8,1.9]"

# Parry numbers: quadratic Pisot numbers in (a, a + 1) and in (a - 1, a),
# integers, and the tribonacci number
PARRY_BETAS = (["poly:x^2-%dx-%d@[%d,%d]" % (a, b, a, a + 1)
                for a in range(2, 7) for b in range(1, a + 1)]
               + ["poly:x^2-%dx+%d@[%d,%d]" % (a, b, a - 1, a)
                  for a in range(2, 7) for b in range(1, a - 1)]
               + [str(a) for a in range(2, 7)] + [TRIBONACCI])


@pytest.mark.parametrize("doc", [
    GOLDEN_DOC, EVEN_DOC, {"kind": "example-nonempty", "lengths": [3, 5]},
    {"kind": "beta", "beta": TRIBONACCI}, {"kind": "beta", "beta": "3"},
], ids=["finite-type", "sofic", "example-nonempty", "beta-tribonacci", "beta-3"])
def test_presented_kinds_step_on_their_presentation(steps_on_table, doc):
    r = realize(document_from_object(doc), 12)
    steps_on_table(r.oracle, prune_labeled(r.labeled))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(PARRY_BETAS))
def test_parry_beta_documents_walk_their_presentation(spec):
    # the presentation and the digit rule read one language; only the
    # presentation's states come back, so only its walk finds a repeat
    r = realize(document_from_object({"kind": "beta", "beta": spec}), 200)
    assert r.labeled is not None
    digits = beta_oracle(r.stream, 25)
    assert complexity(r.oracle, 25) == complexity(digits, 25)
    assert minimal_forbidden(r.oracle, 25) == minimal_forbidden(digits, 25)
    assert minimal_forbidden_lengths(r.oracle, 200).repeat is not None


def test_realize_beta_truncated_clamps_horizon():
    doc = document_from_object({"kind": "beta", "beta": "1.8", "digits": 9})
    r = realize(doc, 40)
    assert r.horizon == 9
    assert r.labeled is None
    with pytest.raises(UnsupportedSpecError):
        shift_entropy(r)


def test_realize_substitution():
    r = realize(document_from_object(FIB_DOC), 10)
    assert complexity(r.oracle, 6) == [1, 2, 3, 4, 5, 6, 7]
    assert r.substitution.rules["0"] == ("0", "1")
    with pytest.raises(UnsupportedSpecError):
        periodic_points_le(r, 3)


def test_realize_induced_first_return():
    doc = document_from_object({
        "kind": "induced",
        "base": {k: v for k, v in GOLDEN_DOC.items() if k != "label"},
        "window": 1,
        "clopen": ["000", "001", "100", "101"],
        "return_rule": "first-return"})
    r = realize(doc, 5)
    assert complexity(r.oracle, 5) == [1, 4, 8, 16, 32, 64]
    assert r.base is not None
    assert r.induced_spec.cap >= 1


def test_realize_induced_constant_rho():
    doc = document_from_object({
        "kind": "induced",
        "base": {k: v for k, v in GOLDEN_DOC.items() if k != "label"},
        "window": 1,
        "return_rule": 1})
    r = realize(doc, 6)
    base = realize(document_from_object(GOLDEN_DOC), 12)
    p_base = complexity(base.oracle, 8)
    assert complexity(r.oracle, 6) == [1] + p_base[3:]


def test_nested_induced_document_realizes_each_level_twice(monkeypatch):
    # a realized induced base is lengthened along its resolved chain, not
    # realized again from its document: 2 calls a level, not 2^(d+1) - 2
    doc = {"kind": "finite-type", "alphabet": ["a"], "forbidden": []}
    for _ in range(16):
        doc = {"kind": "induced", "window": 0, "return_rule": 1, "base": doc}
    calls = []
    inner = shifts.realize
    monkeypatch.setattr(shifts, "realize",
                        lambda doc, horizon: calls.append(horizon) or inner(doc, horizon))
    r = inner(document_from_object(doc), 5)
    assert len(calls) == 32
    assert r.oracle.words_of_length(5) == (("a",) * 5,)
    depth, base = 0, r
    while base.base is not None:
        depth, base = depth + 1, base.base
        assert base.horizon == 5 + 3 * depth
    assert depth == 16


def test_realize_example_nonempty():
    doc = document_from_object({"kind": "example-nonempty", "lengths": [3, 5]})
    r = realize(doc, 8)
    assert r.spec is not None
    assert not r.oracle.contains(("0", "2", "0"))
    assert r.oracle.contains(("0", "1", "0"))


def test_realize_example_betashift():
    doc = document_from_object({"kind": "example-betashift",
                                "mode": "specified", "steps": 2})
    r = realize(doc, 30)
    assert r.horizon == 22
    assert r.stream.known_length == 22


def test_parse_block_code():
    alph = Alphabet(("0", "1"))
    code = parse_block_code({"range": 0, "rule": {"0": "1", "1": "0"}}, alph)
    assert code.apply_to_word(("0", "1")) == ("1", "0")
    assert code.target_alphabet.symbols == ("0", "1")
    code = parse_block_code({"range": 0, "rule": {"0": "a", "1": "a"},
                             "target": ["a", "b"]}, alph)
    assert code.target_alphabet.symbols == ("a", "b")
    with pytest.raises(UnsupportedSpecError):
        parse_block_code({"rule": {}}, alph)


@settings(max_examples=30, deadline=None)
@given(st.sets(st.text(alphabet="01", min_size=1, max_size=4), max_size=4),
       st.text(alphabet="abcdefghij -", max_size=12))
def test_document_round_trip_random(forbidden, label):
    obj = {"kind": "finite-type", "alphabet": ["0", "1"],
           "forbidden": sorted(forbidden)}
    if label:
        obj["label"] = label
    doc = document_from_object(obj)
    assert parse_shift_document(serialize_shift_document(doc)) == doc
