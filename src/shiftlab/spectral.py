"""Exact integer matrix arithmetic, strongly connected components, and
Perron roots and vectors of nonnegative integer matrices.

Matrices are lists of lists of Python ints so periodic-point counts stay
exact at any size.  Perron data come from one pure-Python power
iteration on the shifted matrix B = A + I, which is primitive whenever A
is irreducible, over sparse rows.  For any positive u the Collatz-
Wielandt quotients bracket the root, min_i (Bu)_i/u_i <= rho(B) <=
max_i (Bu)_i/u_i (Seneta, Non-negative Matrices and Markov Chains,
Ch. 1); the iteration stops once their float width is below the
tolerance.  Those quotients are floats, so the width is a stopping rule,
not a rigorous bound.
"""

import operator

from .errors import ConvergenceError, ReducibleGraphError

# Stopping rule of the power iteration: Collatz-Wielandt width on A + I.
TOL = 1e-12
MAX_ITER = 500000


def int_matmul(a, b):
    columns = list(zip(*b))
    return [[sum(map(operator.mul, row, col)) for col in columns] for row in a]


def int_trace(a):
    return sum(a[i][i] for i in range(len(a)))


def strongly_connected_components(n, succ):
    """Tarjan's algorithm, iterative.  ``succ[i]`` lists successors of i.

    Returns components as sorted tuples of vertex indices, in a
    deterministic order (sorted by smallest member).
    """
    index = [None] * n
    low = [0] * n
    on_stack = [False] * n
    stack = []
    comps = []
    counter = [0]

    for root in range(n):
        if index[root] is not None:
            continue
        work = [(root, iter(succ[root]))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack[root] = True
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if index[w] is None:
                    index[w] = low[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(succ[w])))
                    advanced = True
                    break
                elif on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                comps.append(tuple(sorted(comp)))
    return sorted(comps)


def is_irreducible(n, succ):
    if n == 0:
        return False
    comps = strongly_connected_components(n, succ)
    if len(comps) != 1:
        return False
    # a single vertex with no loop is the trivial strongly connected case
    if n == 1:
        return 0 in succ[0]
    return True


def _check_irreducible(matrix):
    n = len(matrix)
    if n == 0:
        raise ReducibleGraphError("empty matrix has no Perron root")
    if not is_irreducible(n, [[j for j in range(n) if matrix[i][j]] for i in range(n)]):
        raise ReducibleGraphError("matrix is not irreducible")


def _power_iteration(matrix):
    """Perron root of an irreducible ``matrix`` of size >= 2 and a positive
    right eigenvector, L1-normalized, by power iteration on A + I from
    the all-ones vector."""
    n = len(matrix)
    rows = [[(j, float(matrix[i][j] + (i == j))) for j in range(n)
             if matrix[i][j] or i == j] for i in range(n)]
    u = [1.0] * n
    lo, hi = 0.0, float("inf")
    for _ in range(MAX_ITER):
        bu = [sum(w * u[j] for j, w in row) for row in rows]
        ratios = [x / y for x, y in zip(bu, u)]
        lo, hi = min(ratios), max(ratios)
        if hi - lo < TOL:
            break
        top = max(bu)
        u = [x / top for x in bu]
    else:
        if hi - lo > 1e-9:
            raise ConvergenceError(
                "Perron iteration width %.3e did not reach tolerance" % (hi - lo))
    total = sum(u)
    return (lo + hi) / 2.0 - 1.0, [x / total for x in u]


def perron_root(matrix):
    """Perron root of an irreducible nonnegative integer matrix, a float
    whose Collatz-Wielandt width on A + I is below ``TOL``."""
    _check_irreducible(matrix)
    if len(matrix) == 1:
        return float(matrix[0][0])
    return _power_iteration(matrix)[0]


def perron_vectors(matrix):
    """Perron root with right and left eigenvectors (L1-normalized).

    The root and the right vector come from one iteration on A + I, the
    left vector from one iteration on its transpose.
    """
    _check_irreducible(matrix)
    if len(matrix) == 1:
        return float(matrix[0][0]), [1.0], [1.0]
    value, right = _power_iteration(matrix)
    _, left = _power_iteration([list(col) for col in zip(*matrix)])
    return value, right, left


def spectral_radius_certified(matrix):
    """Spectral radius of a nonnegative integer matrix and the strongly
    connected component that carries it.

    Returns (radius, component): the largest Perron root over the
    components, and the first component in ``strongly_connected_components``
    order that attains it.  Single vertices without loops contribute 0,
    so a matrix without cycles gives (0.0, ()).
    """
    n = len(matrix)
    succ = [[j for j in range(n) if matrix[i][j]] for i in range(n)]
    best = (0.0, ())
    for comp in strongly_connected_components(n, succ):
        if len(comp) == 1:
            radius = float(matrix[comp[0]][comp[0]])
        else:
            radius = perron_root([[matrix[i][j] for j in comp] for i in comp])
        if radius > best[0]:
            best = (radius, comp)
    return best
