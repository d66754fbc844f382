"""Perron roots and vectors against an independent eigenvalue solver."""

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftlab import ReducibleGraphError
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
