"""Alphabets, words, language oracles, and special-word analysis.

A word is a tuple of symbols drawn from an :class:`Alphabet`.  Symbols are
opaque strings; the alphabet fixes their order, which every lexicographic
comparison and enumeration in the package uses.  Multi-character symbols
are legal (recoded systems use whole windows as single letters), so words
are never plain strings internally.  ``Alphabet.word`` parses the
single-character shorthand "0110" into a proper tuple.

A :class:`LanguageOracle` is the universal handle on a shift's language:
the alphabet and a state machine (``start``, ``step``) that reads words
one letter at a time, exact up to a declared horizon.  Membership is
the fold of ``step`` from ``start``, and enumeration extends each word's
state instead of rescanning the word.  Words that end in the same state
have the same extensions, so :func:`complexity` counts words per state
and lists none.  Every operation that consumes an oracle checks the
horizon and refuses to answer beyond it rather than silently degrading.
"""

import sys
from functools import cached_property

from .errors import AlphabetMismatchError, EnumerationCapError, HorizonExceededError
from .record import Record

LESS, EQUAL, GREATER = -1, 0, 1

EMPTY_WORD = ()

# Word listings and cylinder tables refuse past this many entries, and
# cylinder tables and digit streams past this many letters.
WORD_LIMIT = 10 ** 6
LETTER_LIMIT = 10 * WORD_LIMIT

# periodic-point enumerations refuse past this many points by default
DEFAULT_CAP = 10 ** 6

# digits a beta report expands by default, and at least (see beta.beta_stream)
BETA_DIGITS = 64


def printable(n):
    """Is the int ``n`` within the interpreter's limit on the decimal
    digits of an int converted to a string?  10**limit has between
    3.321 * limit and 3.322 * limit bits, so only a length in between
    is compared with it."""
    limit = sys.get_int_max_str_digits()
    bits = n.bit_length()
    if not limit or bits * 1000 <= limit * 3321:
        return True
    return (bits - 1) * 1000 < limit * 3322 and abs(n) < 10 ** limit


def count_text(n):
    """A count ``n`` >= 1 as a refusal message prints it: in decimal, or
    as "at least 10^k" (k the floor of log10 n) when it has more digits
    than the interpreter converts."""
    if printable(n):
        return "%d" % n
    k = (n.bit_length() - 1) * 301029 // 1000000  # at most log10 n
    while 10 ** (k + 1) <= n:
        k += 1
    return "at least 10^%d" % k


class Alphabet(Record):
    """Ordered, finite set of distinct symbols.

    The ordering of ``symbols`` is the lexicographic base order.

    Examples
    --------
    >>> binary = Alphabet(("0", "1"))
    >>> binary.index("1")
    1
    >>> binary.word("010")
    ('0', '1', '0')
    """

    _fields = ("symbols",)

    def __init__(self, symbols):
        self.symbols = symbols
        if not symbols:
            raise AlphabetMismatchError("alphabet must be nonempty")
        for s in symbols:
            if not isinstance(s, str) or not s:
                raise AlphabetMismatchError("alphabet symbols must be nonempty strings")
        if len(set(symbols)) != len(symbols):
            raise AlphabetMismatchError("alphabet symbols must be distinct")

    @cached_property
    def _index(self):
        return {s: i for i, s in enumerate(self.symbols)}

    def __len__(self):
        return len(self.symbols)

    def __iter__(self):
        return iter(self.symbols)

    def __contains__(self, symbol):
        return symbol in self._index

    def index(self, symbol):
        try:
            return self._index[symbol]
        except KeyError:
            raise AlphabetMismatchError("symbol %r is not in the alphabet" % (symbol,)) from None

    @cached_property
    def single_char(self):
        return all(len(s) == 1 for s in self.symbols)

    def word(self, letters):
        """Build a validated word from a string or an iterable of symbols.

        A plain string is split into characters only when every symbol of
        the alphabet is a single character; otherwise pass a sequence.
        """
        if isinstance(letters, str):
            if not self.single_char:
                raise AlphabetMismatchError(
                    "alphabet has multi-character symbols; pass a sequence, not a string")
            w = tuple(letters)
        else:
            w = tuple(letters)
        self.check_word(w)
        return w

    def check_word(self, word):
        for s in word:
            if s not in self._index:
                raise AlphabetMismatchError("symbol %r is not in the alphabet" % (s,))

    def key(self, word):
        """Sort key implementing the alphabet's lexicographic order."""
        return tuple(self._index[s] for s in word)


def format_word(word):
    """Render a word for reports: concatenated when unambiguous, dotted otherwise.

    The word is concatenated when every letter is one character.  Since
    ``Alphabet`` refuses empty symbols, that holds exactly when the
    concatenation is as long as the word."""
    if not word:
        return "(empty)"
    joined = "".join(word)
    if len(joined) == len(word):
        return joined
    return ".".join(word)


class LanguageOracle(Record):
    """Oracle for a factorial language, exact up to a horizon.

    Build one directly when ``step`` is cheaper than a memo lookup (the
    substitution oracle's is a few list reads in its suffix automaton,
    the survivor oracle's a row read in its subset table), or with
    :func:`stepping_oracle`, which memoizes ``step``.

    Parameters
    ----------
    alphabet : Alphabet
    start, step : state machine reading words left to right
        ``step(state, letter)`` is the state after one more letter, or
        None once the word read is forbidden; ``start`` is the state of
        the empty word, None for the empty language.  The language must
        be factorial (subwords of allowed words allowed) on the reliable
        range; enumeration relies on it.
    max_reliable_length : int
        Largest word length for which the automaton is exact.
    demand : list, optional
        A one-item list that ``check_horizon`` raises to the longest
        length asked of it, for an oracle that sizes its work by what its
        callers will read; every walk checks its length before stepping.
    """

    _fields = ("alphabet", "start", "step", "max_reliable_length", "demand")

    def __init__(self, alphabet, start, step, max_reliable_length, demand=None):
        self.alphabet = alphabet
        self.start = start
        self.step = step
        self.max_reliable_length = max_reliable_length
        self.demand = demand
        self._cache = {}

    def membership(self, word):
        """Is ``word`` read to a state?  The fold of ``step`` from ``start``."""
        state = self.start
        step = self.step
        for a in word:
            if state is None:
                break
            state = step(state, a)
        return state is not None

    def check_horizon(self, n):
        if n > self.max_reliable_length:
            raise HorizonExceededError(
                "length %d exceeds the oracle horizon %d" % (n, self.max_reliable_length))
        if n < 0:
            raise HorizonExceededError("negative word length")
        demand = self.demand
        if demand is not None and n > demand[0]:
            demand[0] = n

    def contains(self, word):
        word = tuple(word)
        self.alphabet.check_word(word)
        self.check_horizon(len(word))
        return self.membership(word)

    def words_of_length(self, n):
        """All allowed words of length ``n``, sorted lexicographically.

        Built incrementally: allowed words of length n are the one-letter
        extensions of allowed words of length n-1 that ``step`` keeps
        alive, by factoriality.  The missing levels are built in turn
        from the highest cached level below n, and only level n is kept,
        so a listing holds two levels at a time.

        Past ``WORD_LIMIT`` words it refuses before building a level.  It
        counts level n on states (:func:`complexity`) only when the highest
        cached level, times |A| per missing level, can pass the limit.
        """
        self.check_horizon(n)
        cache = self._cache
        hit = cache.get(("L", n))
        if hit is not None:
            return hit
        low = n - 1
        while low > 0 and ("L", low) not in cache:
            low -= 1
        if ("L", low) in cache:
            words, states = cache[("L", low)], cache[("S", low)]
        else:  # an unlisted level 0 holds at most the empty word
            low = 0
            words = (EMPTY_WORD,) if self.start is not None else ()
            states = (self.start,) * len(words)
        if len(words) * len(self.alphabet) ** (n - low) > WORD_LIMIT:
            count = complexity(self, n)[n]
            if count > WORD_LIMIT:
                raise EnumerationCapError("%s words of length %d exceed the limit %d"
                                          % (count_text(count), n, WORD_LIMIT))
        step, letters = self.step, self.alphabet.symbols
        for _ in range(low, n):
            longer, after = [], []
            for w, state in zip(words, states):
                for a in letters:
                    nxt = step(state, a)
                    if nxt is not None:
                        longer.append(w + (a,))
                        after.append(nxt)
            words, states = longer, after
        cache[("S", n)] = tuple(states)
        cache[("L", n)] = words = tuple(words)
        return words

    def frontier(self, n):
        """Allowed words of length ``n`` and the states ``step`` reaches
        on them, as two aligned tuples."""
        words = self.words_of_length(n)
        return words, self._cache[("S", n)]


def stepping_oracle(alphabet, start, step, horizon):
    """Oracle of the language an automaton reads.

    ``start`` is the state of the empty word (None for the empty
    language) and ``step(state, letter)`` the next state, None when the
    word is forbidden.  ``step`` is memoized per (state, letter), so an
    automaton given by a successor rule is determinized lazily.
    """
    memo = {}

    def cached_step(state, letter):
        key = (state, letter)
        try:
            return memo[key]
        except KeyError:
            after = memo[key] = step(state, letter)
            return after

    return LanguageOracle(alphabet, start, cached_step, horizon)


def complexity(oracle, n_max):
    """Complexity profile [p(0), p(1), ..., p(n_max)].

    p(0) is 1 for a nonempty shift (the empty word) and 0 for the empty
    shift.  Words that end in the same state have the same extensions,
    so each level is a count of words per state, stepped letter by
    letter, and p(n) is the level's total; no word is built.
    """
    oracle.check_horizon(n_max)
    if oracle.start is None:
        return [0] * (n_max + 1)
    step, letters = oracle.step, oracle.alphabet.symbols
    level = {oracle.start: 1}
    counts = [1]
    for _ in range(n_max):
        after = {}
        for state, count in level.items():
            for a in letters:
                nxt = step(state, a)
                if nxt is not None:
                    after[nxt] = after.get(nxt, 0) + count
        level = after
        counts.append(sum(level.values()))
    return counts


class SpecialReport:
    """Left-special, right-special and bispecial words of one length."""

    def __init__(self, length, left_special, right_special, bispecial):
        self.length = length
        self.left_special = left_special
        self.right_special = right_special
        self.bispecial = bispecial


def special_words(oracle, n):
    """Special words of length ``n``; needs the language at length n+1.

    A word is left special when at least two letters extend it on the
    left, right special symmetrically, bispecial when both.  Right special
    words are prefixes of two consecutive sorted words of length n + 1.
    """
    oracle.check_horizon(n + 1)
    oracle.check_horizon(n)
    longer = oracle.words_of_length(n + 1)
    right = []
    for u, v in zip(longer, longer[1:]):
        head = u[:-1]
        if head == v[:-1] and (not right or right[-1] != head):
            right.append(head)
    first = {}  # suffix -> its first letter, None once a second one is met
    for u in longer:
        if first.setdefault(u[1:], u[0]) != u[0]:
            first[u[1:]] = None
    left = sorted((w for w, a in first.items() if a is None), key=oracle.alphabet.key)
    rs = set(right)
    return SpecialReport(n, tuple(left), tuple(right), tuple(w for w in left if w in rs))
