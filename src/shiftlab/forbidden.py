"""Minimal forbidden words and language-stability diagnostics.

A word is minimal forbidden when it does not occur in the shift but both
words obtained by dropping its first or last letter do.  The set of
lengths carrying at least one minimal forbidden word is the central
stability invariant here: sparse length sets are evidence of a stable
language, relatively dense ones of instability.  All computations are
oracle-driven, so every backend (finite type, sofic, beta, substitution,
recoded) gets the same diagnostics.
"""

from dataclasses import dataclass
from fractions import Fraction

from .errors import InfeasibleSetError
from .language import Alphabet
from .sft import FiniteTypeSpec


@dataclass(frozen=True)
class MFWTable:
    """Minimal forbidden words indexed by length, up to a horizon."""

    horizon: int
    by_length: dict  # length -> tuple of words (sorted); only nonempty lengths

    @property
    def lengths(self):
        return tuple(sorted(self.by_length))

    def words(self):
        return tuple(w for n in sorted(self.by_length) for w in self.by_length[n])


def minimal_forbidden(oracle, n_max):
    """Minimal forbidden words of every length up to ``n_max``.

    Uses only the language up to length n_max.  At length 1 these are
    the letters missing from the language; for n >= 2 a word awb
    qualifies when aw and wb are allowed but awb is not (factoriality
    makes the two maximal proper subwords decisive).  The words aw come
    with their oracle states, so deciding awb is one ``step``.
    """
    oracle.check_horizon(n_max)
    table = {}
    if n_max >= 1:
        letters = set(oracle.words_of_length(1))
        missing = tuple(a for a in oracle.alphabet if (a,) not in letters)
        if missing:
            table[1] = tuple((a,) for a in missing)
    step = oracle.step
    for n in range(2, n_max + 1):
        words, states = oracle.frontier(n - 1)
        prev = set(words)
        found = set()
        for u, state in zip(words, states):
            w = u[1:]
            for b in oracle.alphabet:
                if w + (b,) in prev and step(state, b) is None:
                    found.add(u + (b,))
        if found:
            table[n] = tuple(sorted(found, key=oracle.alphabet.key))
    return MFWTable(n_max, table)


@dataclass(frozen=True)
class LSReport:
    """Lengths of minimal forbidden words with density evidence.

    ``window_densities[k]`` is the minimum over placements of
    |ls ∩ (n, n+k]| / k for windows lying inside [1, horizon]; it lower
    bounds nothing asymptotic by itself but is the finite-horizon
    evidence the stability notion asks about.
    ``max_gap`` is the longest run of consecutive lengths in [1, horizon]
    free of minimal forbidden words.
    """

    horizon: int
    ls_set: tuple
    max_gap: int
    window_densities: dict


def window_density_report(ls_lengths, horizon):
    ls = sorted(set(ls_lengths))
    present = set(ls)
    counts = [0]  # counts[n] = |ls ∩ [1, n]|
    max_gap = 0
    run = 0
    for n in range(1, horizon + 1):
        if n in present:
            run = 0
        else:
            run += 1
            max_gap = max(max_gap, run)
        counts.append(counts[-1] + (n in present))
    densities = {}
    for k in range(1, max(1, horizon // 2) + 1):
        if k <= horizon:
            fewest = min(counts[start + k] - counts[start]
                         for start in range(horizon - k + 1))
            densities[k] = float(Fraction(fewest, k))
    return tuple(ls), max_gap, densities


def ls_report(table):
    """Stability evidence from a minimal-forbidden-word table."""
    ls, max_gap, densities = window_density_report(table.lengths, table.horizon)
    return LSReport(table.horizon, ls, max_gap, densities)


def well_approx_check(oracle, alpha, n_max):
    """Witnesses that the shift is approximable at rate ``alpha``.

    n is a witness when no minimal forbidden word has length in
    (n, n + alpha(n)], i.e. the SFT covers X_n and X_{n+alpha(n)}
    coincide.  Only n with n + alpha(n) <= n_max are decidable at this
    horizon; others are skipped.
    """
    table = minimal_forbidden(oracle, n_max)
    present = set(table.lengths)
    witnesses = []
    for n in range(1, n_max + 1):
        a = alpha(n)
        if a < 0:
            raise InfeasibleSetError("alpha must be nonnegative")
        if n + a > n_max:
            continue
        if not any(m in present for m in range(n + 1, n + a + 1)):
            witnesses.append(n)
    return tuple(witnesses)


def tau_eval(n):
    """Exact value of tau(n) = 2n + (1 + n^n) * n^(4n+1).

    Grows superexponentially; the point of exposing it is to make the
    scale of the generic approximation rate concrete.
    """
    if n < 1:
        raise InfeasibleSetError("tau is defined for n >= 1")
    return 2 * n + (1 + n ** n) * n ** (4 * n + 1)


def example_nonempty_shift(lengths):
    """An SFT over {0,1,2} whose minimal-forbidden lengths are exactly ``lengths``.

    For each target length ell >= 3 the forbidden word is 0 c^(ell-2) 0
    with c = 1 when ell-2 is even and c = 2 when ell-2 is odd.  Distinct
    targets give words that are incomparable under the subword order, so
    the forbidden list is exactly the minimal forbidden set and the
    length set is realized on the nose.
    """
    target = sorted(set(lengths))
    if any(ell < 3 for ell in target):
        raise InfeasibleSetError("target lengths must be >= 3")
    abc = Alphabet(("0", "1", "2"))
    words = set()
    for ell in target:
        n = ell - 2
        c = "1" if n % 2 == 0 else "2"
        words.add(("0",) + (c,) * n + ("0",))
    label = "ls-target-%s" % (",".join(str(x) for x in target) or "empty")
    return FiniteTypeSpec(abc, frozenset(words), label=label)
