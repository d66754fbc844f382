"""Perron roots and vectors against an independent eigenvalue solver,
and the planned power iteration against the plain loop it replaced."""

import json

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftlab import ConvergenceError, ReducibleGraphError, cli, spectral
from shiftlab.spectral import (_power_iteration, is_irreducible, perron_root,
                               perron_vectors, spectral_radius_certified)


@st.composite
def irreducible_matrices(draw):
    """Nonnegative integer matrices of size <= 6 with entries 0-3; a
    reducible draw gets the cycle 0 -> 1 -> ... -> n-1 -> 0 added."""
    n = draw(st.integers(1, 6))
    m = draw(st.lists(st.lists(st.integers(0, 3), min_size=n, max_size=n),
                      min_size=n, max_size=n))
    if not is_irreducible(n, [[j for j in range(n) if m[i][j]] for i in range(n)]):
        for i in range(n):
            m[i][(i + 1) % n] = max(1, m[i][(i + 1) % n])
    return m


def largest_modulus(matrix):
    with mpmath.workdps(30):
        values, _ = mpmath.eig(mpmath.matrix(matrix))
        return float(max(abs(v) for v in values))


@settings(max_examples=80, deadline=None)
@given(irreducible_matrices())
def test_perron_root_and_vectors_match_mpmath(matrix):
    n = len(matrix)
    rho = largest_modulus(matrix)
    assert abs(perron_root(matrix) - rho) <= 1e-12 * rho
    lam, right, left = perron_vectors(matrix)
    assert lam == perron_root(matrix)
    for vec in (right, left):
        assert all(x > 0 for x in vec)
        assert sum(vec) == pytest.approx(1, abs=1e-12)
    for i in range(n):
        assert abs(sum(matrix[i][j] * right[j] for j in range(n)) - lam * right[i]) <= 1e-10
        assert abs(sum(left[j] * matrix[j][i] for j in range(n)) - lam * left[i]) <= 1e-10


def test_spectral_radius_names_the_first_top_component():
    # two loops of weight 2 and a 3-cycle of weight 1 between them
    matrix = [[2, 1, 0, 0, 0],
              [0, 0, 1, 0, 0],
              [0, 0, 0, 1, 0],
              [0, 1, 0, 0, 1],
              [0, 0, 0, 0, 2]]
    assert spectral_radius_certified(matrix) == (2.0, (0,))
    assert spectral_radius_certified([[0, 1], [0, 0]]) == (0.0, ())


def test_reducible_matrix_is_refused():
    with pytest.raises(ReducibleGraphError):
        perron_root([[1, 1], [0, 1]])
    with pytest.raises(ReducibleGraphError):
        perron_vectors([[0]])


@settings(max_examples=60, deadline=None)
@given(irreducible_matrices())
def test_symmetric_left_vector_is_the_transpose_iteration(m):
    # A + A^T is symmetric and irreducible; its left vector is the right
    # one copied, equal float for float to an iteration on the transpose
    n = len(m)
    sym = [[m[i][j] + m[j][i] for j in range(n)] for i in range(n)]
    value, right, left = perron_vectors(sym)
    assert left == right and left is not right
    if n > 1:
        assert (value, right) == _power_iteration(sym)
        assert left == _power_iteration([list(col) for col in zip(*sym)])[1]


def reference_power_iteration(matrix):
    """The power iteration as one plain loop over (column, weight) pairs,
    all ``MAX_ITER`` steps long when it does not converge."""
    n = len(matrix)
    rows = [[(j, float(matrix[i][j] + (i == j))) for j in range(n)
             if matrix[i][j] or i == j] for i in range(n)]
    u = [1.0] * n
    lo, hi = 0.0, float("inf")
    for _ in range(spectral.MAX_ITER):
        bu = [sum(w * u[j] for j, w in row) for row in rows]
        ratios = [x / y for x, y in zip(bu, u)]
        lo, hi = min(ratios), max(ratios)
        if hi - lo < spectral.TOL:
            break
        top = max(bu)
        u = [x / top for x in bu]
    else:
        if hi - lo > 1e-9:
            raise ConvergenceError(
                "Perron iteration width %.3e did not reach tolerance" % (hi - lo))
    total = sum(u)
    return (lo + hi) / 2.0 - 1.0, [x / total for x in u]


def outcome(iteration, matrix):
    try:
        return iteration(matrix)
    except ConvergenceError as exc:
        return ("ConvergenceError", str(exc))


@st.composite
def wide_irreducible_matrices(draw):
    """Irreducible matrices of size 2-12 with entries 0-3 and up to three
    entries in the hundreds, so rows mix unit and other weights."""
    n = draw(st.integers(2, 12))
    m = draw(st.lists(st.lists(st.integers(0, 3), min_size=n, max_size=n),
                      min_size=n, max_size=n))
    for i in range(n):
        m[i][(i + 1) % n] = max(1, m[i][(i + 1) % n])
    for _ in range(draw(st.integers(0, 3))):
        m[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] = draw(st.integers(100, 999))
    return m


@settings(max_examples=150, deadline=None)
@given(wide_irreducible_matrices())
def test_power_iteration_equals_the_reference_loop(m):
    for matrix in (m, [list(col) for col in zip(*m)]):
        assert _power_iteration(matrix) == reference_power_iteration(matrix)


# Its root is too large for a 1e-12 width: from step 858 on the float
# vectors repeat with period 3, so the iteration runs out its steps.
STALLED = [[0, 266, 0], [16, 0, 266], [266, 0, 0]]


@pytest.mark.parametrize("cycle_start", [1, 100, 858, 859, 860, 1000])
@pytest.mark.parametrize("max_iter", [0, 1, 10, 857, 858, 859, 860, 861, 863, 864,
                                      865, 866, 1000, 1001, 1002, 1005, 1006,
                                      1007, 5000])
def test_stalled_iteration_ends_where_the_full_loop_ends(monkeypatch, max_iter,
                                                         cycle_start):
    monkeypatch.setattr(spectral, "MAX_ITER", max_iter)
    monkeypatch.setattr(spectral, "CYCLE_START", cycle_start)
    expected = outcome(reference_power_iteration, STALLED)
    assert outcome(_power_iteration, STALLED) == expected
    if max_iter >= 1000:
        assert expected[0] == pytest.approx(271.33263297522)


@pytest.mark.parametrize("scale", [1, 10**6])
def test_stalled_iteration_with_the_module_limits(monkeypatch, scale):
    # scaled by 10^6 the quotients stall 7.7e-7 apart, which is refused
    matrix = [[x * scale for x in row] for row in STALLED]
    expected = outcome(reference_power_iteration, matrix)
    assert (expected[0] == "ConvergenceError") == (scale > 1)
    steps = []  # the iteration takes one min() per step
    monkeypatch.setattr(spectral, "min", lambda xs: steps.append(1) or min(xs),
                        raising=False)
    assert outcome(_power_iteration, matrix) == expected
    assert len(steps) < 2 * spectral.CYCLE_START


def stalled_document():
    """A sofic document whose one presentation is deterministic with
    adjacency ``STALLED``: each edge carries a letter of its own."""
    edges, states = [], "pqr"
    for i, row in enumerate(STALLED):
        for j, count in enumerate(row):
            edges += [[states[i], "x%d" % (len(edges) + k), states[j]] for k in range(count)]
    return {"kind": "sofic", "alphabet": [e[1] for e in edges],
            "states": list(states), "edges": edges}


def test_stalled_document_entropy_is_pinned(tmp_path, capsys):
    stalled = stalled_document()
    assert len(stalled["alphabet"]) == 814
    doc = tmp_path / "stalled.json"
    doc.write_text(json.dumps(stalled))
    assert cli.main(["entropy", str(doc), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"kind": "sofic",
                                                   "entropy": 5.60334549615871}
