"""Minimal forbidden words and language-stability diagnostics.

A word is minimal forbidden when it does not occur in the shift but both
words obtained by dropping its first or last letter do.  The set of
lengths carrying at least one minimal forbidden word is the central
stability invariant here: sparse length sets are evidence of a stable
language, relatively dense ones of instability.  All computations are
oracle-driven, so every backend (finite type, sofic, beta, substitution,
recoded) gets the same diagnostics.

``minimal_forbidden`` never enumerates the language.  It walks the pairs
(state(aw), state(w)) level by level, after Crochemore, Mignosi and
Restivo ("Automata and forbidden words", IPL 67, 1998), and spells words
only from the pairs that witness one, so its cost follows the pair space
and the output.  Survivor-set ids keep that space small for finite-type,
sofic and Parry-beta oracles, and tied-length tuples for the other beta
streams.  A substitution oracle's state names one word (a suffix-automaton
node and its length), so there the pairs are as many as the words and the
walk steps about as often as enumeration would, without spelling them; so
does an induced oracle over such a base.
``minimal_forbidden_lengths`` is the same walk for the LS value (an
``LSReport``): it spells nothing, holds a few levels, and stops at a repeat.
"""

import operator
from itertools import accumulate

from .errors import EnumerationCapError, InfeasibleSetError
from .language import LETTER_LIMIT, Alphabet, count_text
from .record import Record
from .sft import FiniteTypeSpec


class MFWTable(Record):
    """Minimal forbidden words indexed by length, up to a horizon."""

    _fields = ("horizon", "by_length")

    def __init__(self, horizon, by_length):
        self.horizon = horizon
        self.by_length = by_length  # length -> tuple of words (sorted); only nonempty lengths

    @property
    def lengths(self):
        return tuple(sorted(self.by_length))

    def words(self):
        return tuple(w for n in sorted(self.by_length) for w in self.by_length[n])


class LSReport(Record):
    """The LS set: the lengths <= ``horizon`` carrying a minimal forbidden
    word, as every report prints it.

    ``repeat`` is (start, period) when n and n + period are both in the
    set or both out of it for every n >= start, and None when no
    repeating block is known.  One ``window_density_report``, on first
    read, gives ``max_gap``, the longest run of lengths in [1, horizon]
    free of the set, and ``window_densities[k]``, the least |ls ∩ (n,
    n+k]| / k over the windows inside [1, horizon]: evidence at the
    horizon, which bounds nothing asymptotic by itself.
    """

    _fields = ("horizon", "ls_set", "repeat")

    def __init__(self, horizon, ls_set, repeat=None):
        self.horizon = horizon
        self.ls_set = ls_set
        self.repeat = repeat

    def __getattr__(self, name):  # only for attributes not yet set
        if name not in ("max_gap", "window_densities"):
            raise AttributeError(name)
        _, self.max_gap, self.window_densities = window_density_report(
            self.ls_set, self.horizon, self.repeat)
        return self.__dict__[name]


def minimal_forbidden(oracle, n_max):
    """Minimal forbidden words of every length up to ``n_max``.

    At length 1 these are the letters missing from the language; for
    n >= 2 a word awb qualifies when aw and wb are allowed but awb is
    not.  Whether it does depends only on the pair of states (x, y) =
    (state(aw), state(w)), so the language is never enumerated: level k
    holds the pairs of the allowed words aw of length k, each with its
    in-edges (parent pair, letter), and (x, y) steps to (step(x, c),
    step(y, c)) while awc stays allowed.  A pair witnesses every b with
    step(y, b) alive and step(x, b) dead, and the words are spelled
    backward from the witnessing pairs only: each backward path spells
    one word aw.  The cost is the pair space times the alphabet per
    level plus the size of the output.  Uses only the language up to
    length n_max.
    """
    oracle.check_horizon(n_max)
    table = {}
    if n_max < 1:
        return MFWTable(n_max, table)
    step, start = oracle.step, oracle.start
    letters = oracle.alphabet.symbols
    level = {}  # pair (state(aw), state(w)) -> in-edges (parent pair, letter)
    missing = []
    for a in letters:
        x = None if start is None else step(start, a)
        if x is None:
            missing.append((a,))
        else:
            level.setdefault((x, start), []).append((None, a))
    if missing:
        table[1] = tuple(missing)
    levels = [None]
    for n in range(2, n_max + 1):
        levels.append(level)
        nxt = {}
        witnessed = []
        for pair in level:
            x, y = pair
            ends = []
            for c in letters:
                yc = step(y, c)
                if yc is None:
                    continue
                xc = step(x, c)
                if xc is None:
                    ends.append(c)
                elif n < n_max:
                    nxt.setdefault((xc, yc), []).append((pair, c))
            if ends:
                witnessed.append((pair, ends))
        if witnessed:
            words = [w + (b,) for pair, ends in witnessed
                     for w in _spell(levels, n - 1, pair) for b in ends]
            table[n] = tuple(sorted(words, key=oracle.alphabet.key))
        level = nxt
    return MFWTable(n_max, table)


def minimal_forbidden_lengths(oracle, n_max):
    """``minimal_forbidden(oracle, n_max).lengths`` as an ``LSReport``.

    The same pair walk, with each level kept as a set of pairs: no
    in-edges and no spelling.  Level n determines both whether length n
    is witnessed and level n + 1, so once a level equals an earlier one
    the lengths repeat with their distance, and the walk reads every
    longer length up to ``n_max`` off that block.  ``repeat`` is the
    first repeat, found holding a few levels after Brent (BIT 20, 1980):
    each level is compared with the two before it and with the one
    saved at the last power of two, and for a longer period two walks a
    period apart meet at the start; when the horizon comes first, the
    last level is sought among the earlier ones of its size.
    Survivor-set oracles (Parry-beta documents among them), and induced
    oracles over them, repeat within a few levels; digit-rule beta and
    substitution oracles walk to ``n_max``.
    """
    oracle.check_horizon(n_max)
    if n_max < 1:
        return LSReport(n_max, ())
    step, start = oracle.step, oracle.start
    letters = oracle.alphabet.symbols
    first = set()
    inside = [False, False]  # inside[n]: some minimal forbidden word has length n
    for a in letters:
        x = None if start is None else step(start, a)
        if x is None:
            inside[1] = True
        else:
            first.add((x, start))
    sizes = [0, 0]  # sizes[n]: the pairs of level n
    saved = saved_at = before = last = period = begin = None
    for n, (level, witnessed) in zip(range(2, n_max + 1), _walk_levels(first, step, letters)):
        if level == last:
            period, begin = 1, n - 1
        elif level == before:
            period, begin = 2, n - 2
        elif level == saved:
            period = n - saved_at
        if period is not None:
            for m in range(n, n_max + 1):
                inside.append(inside[m - period])
            break
        inside.append(witnessed)
        sizes.append(len(level))
        before, last = last, level
        if not (n - 1) & (n - 2):
            saved, saved_at = level, n
        if n == n_max:
            # a repeat by n_max puts the last level in the block, a period
            # after the last earlier level equal to it, of the same size
            again = {m for m in range(2, n_max)
                     if sizes[m] == sizes[n_max] and inside[m] == witnessed}
            period = min((n_max - m for m, (other, _) in zip(
                range(2, max(again, default=1) + 1), _walk_levels(first, step, letters))
                if m in again and other == level), default=None)
    if period is not None and begin is None:
        lead, trail = _walk_levels(first, step, letters), _walk_levels(first, step, letters)
        for _ in range(period):
            next(lead)
        begin = 2
        while next(lead)[0] != next(trail)[0]:
            begin += 1
    return LSReport(n_max, tuple(n for n, flag in enumerate(inside) if flag),
                    None if period is None else (begin, period))


def _walk_levels(level, step, letters):
    """The levels of the pair walk from ``level``, each with whether it
    witnesses a minimal forbidden word; level n + 1 is built as level n
    is read, which steps no word past length n."""
    while True:
        nxt = set()
        witnessed = False
        for x, y in level:
            for c in letters:
                yc = step(y, c)
                if yc is None:
                    continue
                xc = step(x, c)
                if xc is None:
                    witnessed = True
                else:
                    nxt.add((xc, yc))
        yield level, witnessed
        level = nxt


def _spell(levels, k, pair):
    """Every word of length ``k`` whose walk ends at ``pair``, read off
    the in-edges without recursion; letters are consed back to front."""
    words = []
    stack = [(pair, k, None)]
    while stack:
        pair, k, tail = stack.pop()
        for parent, c in levels[k][pair]:
            cell = (c, tail)
            if parent is not None:
                stack.append((parent, k - 1, cell))
                continue
            word = []
            while cell is not None:
                word.append(cell[0])
                cell = cell[1]
            words.append(tuple(word))
    return words


def window_density_report(ls_lengths, horizon, repeat=None):
    """(sorted lengths, max_gap, window_densities) at ``horizon``.  With
    ``repeat`` = (start, period), as in ``LSReport``, a window (n, n + k]
    holds as many lengths as the one a period earlier once n >= start - 1
    + period, so only starts n <= start - 2 + period are scanned."""
    ls = sorted(set(ls_lengths))
    # counts[n] = |ls ∩ [1, n]|; the gaps run between the lengths in
    # [1, horizon] and the ends 0 and horizon + 1
    counts = list(accumulate(map(set(ls).__contains__, range(1, horizon + 1)), initial=0))
    ends = [0] + [n for n in ls if 0 < n <= horizon] + [horizon + 1]
    max_gap = max(map(operator.sub, ends[1:], ends)) - 1
    densities = {}
    for k in range(1, max(1, horizon // 2) + 1):
        if k <= horizon:
            last = horizon - k
            if repeat is not None:
                last = min(last, repeat[0] - 2 + repeat[1])
            fewest = min(map(operator.sub, counts[k:k + last + 1],
                             counts[:last + 1]))
            densities[k] = fewest / k
    return tuple(ls), max_gap, densities


def ls_report(table):
    """The LS view of a spelled ``MFWTable``: its lengths as an
    ``LSReport`` with no repeating block."""
    return LSReport(table.horizon, table.lengths)


def well_approx_check(oracle, alpha, n_max):
    """Witnesses that the shift is approximable at rate ``alpha``.

    n is a witness when no minimal forbidden word has length in
    (n, n + alpha(n)], i.e. the SFT covers X_n and X_{n+alpha(n)}
    coincide.  Only n with n + alpha(n) <= n_max are decidable at this
    horizon; others are skipped.
    """
    present = set(minimal_forbidden_lengths(oracle, n_max).ls_set)
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
    length set is realized on the nose.  Words of more than
    ``LETTER_LIMIT`` letters in all are refused before any is built.
    """
    target = sorted(set(lengths))
    if any(ell < 3 for ell in target):
        raise InfeasibleSetError("target lengths must be >= 3")
    if sum(target) > LETTER_LIMIT:
        raise EnumerationCapError("%s letters in the forbidden words exceed the limit %d"
                                  % (count_text(sum(target)), LETTER_LIMIT))
    abc = Alphabet(("0", "1", "2"))
    words = set()
    for ell in target:
        n = ell - 2
        c = "1" if n % 2 == 0 else "2"
        words.add(("0",) + (c,) * n + ("0",))
    return FiniteTypeSpec(abc, frozenset(words))
