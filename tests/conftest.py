import pytest

from shiftlab import (Alphabet, FiniteTypeSpec, Substitution, build_block_graph,
                      make_labeled_graph, sofic_oracle, sft_oracle, subst_oracle)
from shiftlab.graph import SubsetTable, _subset_step


@pytest.fixture(scope="session")
def alph2():
    return Alphabet(("0", "1"))


@pytest.fixture(scope="session")
def golden_spec(alph2):
    return FiniteTypeSpec(alph2, frozenset([("1", "1")]))


@pytest.fixture(scope="session")
def golden_graph(golden_spec):
    return build_block_graph(golden_spec)


@pytest.fixture(scope="session")
def golden_oracle(golden_graph):
    return sft_oracle(golden_graph, 20)


@pytest.fixture(scope="session")
def even_graph(alph2):
    # runs of 1 between consecutive 0s have even length
    edges = [("e", "0", "e"), ("e", "1", "o"), ("o", "1", "e")]
    return make_labeled_graph(alph2, ("e", "o"), edges)


@pytest.fixture(scope="session")
def even_oracle(even_graph):
    return sofic_oracle(even_graph, 22)


@pytest.fixture(scope="session")
def full2_spec(alph2):
    return FiniteTypeSpec(alph2, frozenset())


@pytest.fixture(scope="session")
def fib():
    return Substitution({"0": ("0", "1"), "1": ("0",)}, "0")


@pytest.fixture(scope="session")
def run_doubler():
    # fixed point 010011010010110100110100..., runs of 1 doubling in length
    return Substitution({"0": ("0", "1", "0"), "1": ("1", "1")}, "0")


def _realized_superwords(spec, letters, rho, max_length):
    """Superwords of length <= max_length, by decoding every base word.

    A base word u realizes the superword its windows spell from the
    first center N on, each next center rho(window) further, when every
    window sits in U, the last window ends where u ends, and (first
    return) no window strictly between two centers lies in U.
    """
    width = 2 * spec.window + 1
    uset = set(letters)
    first_return = spec.return_rule == "first-return"
    longest = (max_length - 1) * max(rho.values()) + width
    found = {()}
    for ell in range(width, longest + 1):
        for u in spec.base.words_of_length(ell):
            superword, start = [], 0
            while start + width <= ell:
                window = u[start:start + width]
                if window not in uset:
                    break
                superword.append(window)
                if start + width == ell:
                    found.add(tuple(superword))
                    break
                after = start + rho[window]
                between = range(start + 1, min(after, ell - width + 1))
                if first_return and any(u[t:t + width] in uset for t in between):
                    break
                start = after
    return {w for w in found if len(w) <= max_length}


def _check_steps_on_table(oracle, g):
    """Assert that ``oracle`` steps on the subset table of the pruned
    presentation ``g``.  Walked in id order, its states are the ids that a
    fresh ``SubsetTable`` of ``g`` gives, each letter reads as that table's
    row, whose sets ``_subset_step`` gives, with id 0 as None, and a letter
    outside the alphabet reads as None."""
    table = SubsetTable(g)
    assert oracle.start == (table.start or None)
    for i in table.close():
        for a, j in zip(table.letters, table.row(i)):
            assert oracle.step(i, a) == (j or None)
            assert table.sets[j] == _subset_step(g, table.sets[i], a)
        assert oracle.step(i, "#") is None


@pytest.fixture(scope="session")
def steps_on_table():
    """The check that an oracle is the survivor oracle of a presentation."""
    return _check_steps_on_table


@pytest.fixture(scope="session")
def realized_superwords():
    """The induced-language decoder written from the definition."""
    return _realized_superwords
