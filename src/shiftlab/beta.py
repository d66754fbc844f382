"""Beta-shifts: expansions of 1, their languages, presentations, and
stability diagnostics.

The expansion d(1, beta) is the greedy digit sequence d_i = floor(beta
T^i(1)) with T(x) = beta x - floor(beta x), 0-indexed so digits[0] =
floor(beta).  A word belongs to the beta-shift iff every suffix is
lexicographically at most the corresponding prefix of the working
stream, which is d(1, beta) itself, or its periodic replacement
d0 .. d_{k-1} (d_k - 1) repeated when the expansion terminates.

Two digit engines, chosen by how beta is described:
- rationals, decimal literals among them (a literal is the rational it
  spells), expand in integers.  An integer beta gives the one digit
  beta ("finite"); any other rational is no algebraic integer, so by
  Parry (1960) its expansion neither ends nor repeats, and it is always
  "truncated".
- algebraic numbers expand exactly in Q(beta).  Each floor, zero test
  and revisit test reads rational enclosures of the residues first; a
  gcd or a bisection runs only when an enclosure straddles the answer.
"""

from fractions import Fraction
import re

from .algebraic import AlgebraicNumber
from .errors import (CannotCloseError, EnumerationCapError, InsufficientDigitsError,
                     UnsupportedSpecError, WrongStatusError)
from .forbidden import MFWTable
from .language import (EQUAL, GREATER, LESS, WORD_LIMIT, Alphabet, count_text, printable,
                       stepping_oracle)
from .graph import make_labeled_graph, prune_labeled
from .record import Record


class DigitStream:
    """A digit sequence known either forever or up to a cutoff.

    kind "eventually-periodic": digits holds preperiod + period entries
    and the tail cycles.  kind "truncated": digits is all that is known.
    """

    def __init__(self, kind, digits, preperiod=0, period=0):
        self.kind = kind
        self.digits = digits
        self.preperiod = preperiod
        self.period = period
        if kind == "eventually-periodic":
            if period < 1 or preperiod < 0:
                raise UnsupportedSpecError("bad periodic structure")
            if len(digits) != preperiod + period:
                raise UnsupportedSpecError(
                    "periodic stream must carry exactly preperiod+period digits")
        elif kind == "truncated":
            if not digits:
                raise UnsupportedSpecError("empty digit stream")
        else:
            raise UnsupportedSpecError("unknown stream kind %r" % (kind,))

    def digit(self, i):
        if self.kind == "eventually-periodic":
            if i < self.preperiod:
                return self.digits[i]
            return self.digits[self.preperiod + (i - self.preperiod) % self.period]
        if i >= len(self.digits):
            raise InsufficientDigitsError(
                "digit %d lies beyond the computed prefix (length %d)"
                % (i, len(self.digits)))
        return self.digits[i]

    def prefix(self, n):
        return tuple(self.digit(i) for i in range(n))

    @property
    def known_length(self):
        """Length of the reliable prefix; None means unbounded."""
        if self.kind == "eventually-periodic":
            return None
        return len(self.digits)

    def check_known(self, n):
        """Refuse work that reads the first n digits when fewer are known."""
        if self.known_length is not None and n > self.known_length:
            raise InsufficientDigitsError("%d digits needed but only %d are known"
                                          % (n, self.known_length))


class BetaExpansion(Record):
    """Greedy expansion of 1 in base beta.

    status is "finite", "eventually-periodic", or "truncated"; the
    periodic case carries (preperiod, period) and digits extended out to
    the requested count.  alphabet_max is floor(beta), the first digit.
    """

    _fields = ("digits", "status", "preperiod", "period", "alphabet_max")

    def __init__(self, digits, status, preperiod=0, period=0, alphabet_max=0):
        self.digits = digits
        self.status = status
        self.preperiod = preperiod
        self.period = period
        self.alphabet_max = alphabet_max

    def working_stream(self):
        """The stream all language work runs on: d itself, or d* when finite."""
        if self.status == "finite":
            return star_expansion(self)
        if self.status == "eventually-periodic":
            head = self.digits[:self.preperiod + self.period]
            return DigitStream("eventually-periodic", head, self.preperiod, self.period)
        return DigitStream("truncated", self.digits)


class BetaNumber:
    """A real beta > 1 given as a rational or an algebraic number."""

    def __init__(self, kind, rational=None, algebraic=None):
        self.kind = kind
        self.rational = rational
        self.algebraic = algebraic


def beta_rational(value):
    value = Fraction(value)
    if value <= 1:
        raise UnsupportedSpecError("beta must exceed 1")
    return BetaNumber(kind="rational", rational=value)


def beta_algebraic(coeffs, lo, hi):
    num = AlgebraicNumber(coeffs, Fraction(lo), Fraction(hi))
    one = num.from_rational(1)
    if num.compare(num.generator, one) <= 0:
        raise UnsupportedSpecError("the isolated root must exceed 1")
    return BetaNumber(kind="algebraic", algebraic=num)


def beta_decimal(literal):
    """The rational a decimal literal spells."""
    try:
        value = Fraction(literal)
    except ValueError:
        raise UnsupportedSpecError("cannot parse decimal literal %r" % (literal,))
    return beta_rational(value)


def _greedy_digits(p, q, n):
    """First n digits of d(1, p/q) for integers p > q >= 1, in integers."""
    digits = []
    num, den = 1, 1  # T^k(1) = num / den with den = q^k
    for _ in range(n):
        den *= q
        d, num = divmod(p * num, den)
        digits.append(d)
    return digits


def _expand_rational(beta, n):
    # For beta = p/q in lowest terms, T^k(1) = N_k / q^k.  An integer beta
    # (q = 1) gives T(1) = 0 and the one digit p.  For q >= 2 induct on k:
    # N_0 = 1, and N_{k+1} = p N_k - d_k q^(k+1) is congruent to p N_k mod q,
    # so it is prime to q like p and N_k.  Then N_k != 0, so the orbit
    # never reaches 0, and T^k(1) has denominator exactly q^k in lowest
    # terms, so no two orbit points are equal.  The expansion is neither
    # finite nor eventually periodic, as Parry (1960) requires of a beta
    # that is not an algebraic integer.
    p, q = beta.numerator, beta.denominator
    if q == 1:
        return [p], "finite", 0, 0
    return _greedy_digits(p, q, n), "truncated", 0, 0


def _expand_algebraic(num, n):
    beta_el = num.generator
    x = num.from_rational(1)
    seen = {x: 0}
    # each earlier residue with rational bounds on its value, computed once
    # and narrowed only while the residue is a candidate for a revisit
    trail = [[x, *num._enclose(x)]]
    digits = []
    for step in range(n):
        y = num.mul(beta_el, x)
        d = num.floor(y)
        digits.append(d)
        x = num.sub(y, num.from_rational(d))
        if num.is_zero(x):
            return digits, "finite", 0, 0
        el, eh = num._enclose(x)
        j = seen.get(x)
        if j is None:
            # residue tuples can differ while the values agree when the
            # defining polynomial is reducible.  Earlier residues are
            # pairwise distinct in value, so at most one equals x: bisect
            # while two or more enclosures overlap that of x, then test the
            # one left, if any, exactly.
            near = [k for k, (_, lo, hi) in enumerate(trail)
                    if lo <= eh and el <= hi]
            while len(near) > 1:
                num._bisect()
                el, eh = num._enclose(x)
                for k in near:
                    trail[k][1:] = num._enclose(trail[k][0])
                near = [k for k in near if trail[k][1] <= eh and el <= trail[k][2]]
            if near and num.is_zero(num.sub(x, trail[near[0]][0])):
                j = near[0]
        if j is not None:
            return digits, "eventually-periodic", j, step + 1 - j
        seen[x] = step + 1
        trail.append([x, el, eh])
    return digits, "truncated", 0, 0


def beta_expand(beta, n):
    """First n digits of d(1, beta), every floor exact.

    Both engines detect a terminating or revisiting orbit of 1, settling
    the status.
    """
    if n < 1:
        raise UnsupportedSpecError("at least one digit is needed")
    if beta.kind == "rational":
        digits, status, pre, per = _expand_rational(beta.rational, n)
    elif beta.kind == "algebraic":
        digits, status, pre, per = _expand_algebraic(beta.algebraic, n)
    else:
        raise UnsupportedSpecError("unknown beta engine %r" % (beta.kind,))
    d0 = digits[0]
    if any(d < 0 or d > d0 for d in digits):
        raise UnsupportedSpecError("digit outside [0, %d]; is beta > 1?" % d0)
    if status == "eventually-periodic" and len(digits) < n:
        stream = DigitStream("eventually-periodic", tuple(digits), pre, per)
        digits = [stream.digit(i) for i in range(n)]
    return BetaExpansion(tuple(digits), status, pre, per, alphabet_max=d0)


def star_expansion(expansion):
    """Replace a finite expansion d0..dk by the periodic d0..d_{k-1}(dk-1).

    The raw finite expansion is degenerate for language work (at integer
    beta it is the single digit beta); the starred stream is the one the
    shift is defined from, and its alphabet is {0..first digit}, which
    at integer beta gives {0..beta-1} as it should.
    """
    if expansion.status != "finite":
        raise WrongStatusError("star replacement applies to finite expansions only")
    if expansion.digits[-1] < 1:
        raise WrongStatusError("finite expansion must end in a positive digit")
    block = expansion.digits[:-1] + (expansion.digits[-1] - 1,)
    return DigitStream("eventually-periodic", block, 0, len(block))


def stream_alphabet(stream):
    return Alphabet(tuple(str(i) for i in range(stream.digit(0) + 1)))


def compare_to_prefix(word_digits, stream):
    """Lexicographic comparison of a digit tuple against the stream
    prefix of the same length."""
    for i, w in enumerate(word_digits):
        d = stream.digit(i)
        if w != d:
            return LESS if w < d else GREATER
    return EQUAL


def beta_oracle(stream, horizon):
    """Language oracle of the beta-shift of the working stream.

    A word is allowed iff each of its suffixes is at most the stream
    prefix of equal length; sufficiency comes from padding with zeros,
    necessity from the domination condition on points.

    The oracle reads that condition one letter at a time.  Its state is
    the tuple of lengths k whose suffix still ties d_0 .. d_{k-1}; a
    suffix already below its prefix stays below.  Reading b tests every
    tied k and the new k = 0: b > d_k rejects, b = d_k keeps k + 1, and
    b < d_k drops k.  This holds for every stream, admissible or not.
    """
    stream.check_known(horizon)
    alphabet = stream_alphabet(stream)

    def step(tied, letter):
        b = int(letter)
        after = []
        for k in (0,) + tied:
            d = stream.digit(k)
            if b > d:
                return None
            if b == d:
                after.append(k + 1)
        return tuple(after)

    return stepping_oracle(alphabet, (), step, horizon)


def beta_mfw(stream, n_max):
    """Minimal forbidden words up to length n_max, from the stream alone.

    They are exactly the words (prefix of d) b with b above the next
    digit, subject to every strict suffix w' of the prefix keeping
    w' b at most d; the suffix condition is what makes the one-letter
    extensions minimal rather than merely forbidden.
    """
    stream.check_known(n_max)
    d0 = stream.digit(0)
    key = stream_alphabet(stream).key
    by_length = {}
    for ell in range(n_max):
        d_ell = stream.digit(ell)
        w = stream.prefix(ell)
        found = []
        for b in range(d_ell + 1, d0 + 1):
            if all(compare_to_prefix(w[j:] + (b,), stream) != GREATER
                   for j in range(1, ell + 1)):
                found.append(tuple(str(c) for c in w + (b,)))
        if found:
            by_length[ell + 1] = tuple(sorted(found, key=key))
    return MFWTable(n_max, by_length)


class BetaLSReport:
    """Occurrence statistics of stream prefixes, as stability evidence.

    An occurrence of a prefix w is an index j with d_j .. d_{j+|w|-1}
    equal to w and j + |w| <= horizon; prefix_reoccurrence counts the
    occurrences at j >= 1.
    """

    def __init__(self, horizon, prefix_reoccurrence, d0_positions, verdict):
        self.horizon = horizon
        self.prefix_reoccurrence = prefix_reoccurrence
        self.d0_positions = d0_positions
        self.verdict = verdict


def beta_ls_diagnostic(stream, horizon):
    """Finite-horizon evidence for or against language stability.

    The first digit d0 vanishing from the late half of the window is
    the signature of an unstable language; every short prefix reoccurring
    is the signature of a stable one.  Anything in between is reported
    as inconclusive rather than guessed.
    """
    if horizon < 1:
        raise UnsupportedSpecError("horizon must be >= 1")
    stream.check_known(horizon)
    d = [stream.digit(i) for i in range(horizon)]
    d0 = d[0]
    d0_positions = tuple(i for i in range(horizon) if d[i] == d0)
    reoccurrence = {}
    for plen in range(1, horizon + 1):
        w = tuple(d[:plen])
        reoccurrence[plen] = sum(
            1 for j in range(1, horizon - plen + 1)
            if tuple(d[j:j + plen]) == w)
    if not any(i >= max(1, horizon // 2) for i in d0_positions):
        verdict = "unstable-evidence"
    elif all(reoccurrence[k] >= 1 for k in range(1, max(1, horizon // 4) + 1)):
        verdict = "stable-evidence"
    else:
        verdict = "inconclusive"
    return BetaLSReport(horizon, reoccurrence, d0_positions, verdict)


def beta_presentation(stream):
    """Labeled graph presenting the beta-shift of an eventually periodic
    stream.

    Vertex i advances to i+1 reading d_i (the last vertex closes onto
    the start of the periodic block), and falls back to vertex 0 reading
    any smaller digit.  Bi-infinite label sequences are exactly the
    sequences all of whose tails sit at most the stream.
    """
    if stream.kind != "eventually-periodic":
        raise CannotCloseError(
            "a truncated stream cannot be closed into a finite presentation")
    p, q = stream.preperiod, stream.period
    m = p + q
    digits = [stream.digit(i) for i in range(m)]
    alphabet = stream_alphabet(stream)
    edges = []
    for i in range(m):
        succ = i + 1 if i + 1 < m else p
        edges.append((i, str(digits[i]), succ))
        for b in range(digits[i]):
            edges.append((i, str(b), 0))
    return prune_labeled(make_labeled_graph(alphabet, tuple(range(m)), edges))


def example_betashift(mode, steps):
    """Digit stream prefixes w_r of the doubling construction
    w_{n+1} = w_n u_n w_n, starting from w_0 = 222, u_0 = 111.

    The separators grow per mode (longer runs of 1, or of 0) and each
    stays lexicographically below u_n w_n, which keeps every computed
    prefix admissible; prefixes of the limit stream reoccur forever, so
    the stability diagnostic reads stable on these.  A stream of more
    than 10 * ``WORD_LIMIT`` digits (the letter limit of the cylinder
    tables) is refused before any digit is built.  The lengths grow, so
    the recurrence stops once a length has too many digits to print: the
    refusal then names that lower bound.
    """
    if mode not in ("specified", "synchronized"):
        raise UnsupportedSpecError("mode must be 'specified' or 'synchronized'")
    if steps < 0:
        raise UnsupportedSpecError("steps must be >= 0")
    length, separator = 3, 3
    for _ in range(steps):
        length, separator = 2 * length + separator, separator + 1
        if not printable(length):
            break
    if length > 10 * WORD_LIMIT:
        raise EnumerationCapError("%s digits after %d steps exceed the limit %d"
                                  % (count_text(length), steps, 10 * WORD_LIMIT))
    w = (2, 2, 2)
    u = (1, 1, 1)
    for _ in range(steps):
        tail = u + w
        w = w + u + w
        u = ((1,) if mode == "specified" else (0,)) * (len(u) + 1)
        if compare_to_prefix(u, DigitStream("truncated", tail)) == GREATER:
            raise UnsupportedSpecError("separator escaped its lexicographic bound")
    return DigitStream("truncated", w)


def _parse_fraction(text, what):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise UnsupportedSpecError("cannot parse %s %r" % (what, text))


def parse_polynomial(text):
    """Parse forms like 'x^2-x-1' or '2x^3 + 1/2x - 3' into coefficients,
    constant term first."""
    s = text.replace(" ", "").replace("*", "")
    if not s:
        raise UnsupportedSpecError("empty polynomial")
    coeffs = {}
    for term in re.findall(r"[+-]?[^+-]+", s):
        m = re.fullmatch(r"([+-]?)(\d+(?:/\d+)?)?(x(?:\^(\d+))?)?", term)
        if not m or (m.group(2) is None and m.group(3) is None):
            raise UnsupportedSpecError("cannot parse polynomial term %r" % (term,))
        sign = -1 if m.group(1) == "-" else 1
        coef = _parse_fraction(m.group(2), "coefficient") if m.group(2) else Fraction(1)
        exp = (1 if m.group(4) is None else int(m.group(4))) if m.group(3) else 0
        coeffs[exp] = coeffs.get(exp, 0) + sign * coef
    top = max(coeffs)
    return tuple(coeffs.get(i, Fraction(0)) for i in range(top + 1))


def parse_beta_spec(text):
    """Beta descriptions: 'rational:5/2', 'poly:x^2-x-1@[1.6,1.7]', or a
    bare decimal literal like '1.8'."""
    text = text.strip()
    if text.startswith("rational:"):
        return beta_rational(_parse_fraction(text[len("rational:"):], "rational beta"))
    if text.startswith("poly:"):
        body = text[len("poly:"):]
        if "@" not in body:
            raise UnsupportedSpecError("polynomial beta needs @[lo,hi] interval")
        poly_text, interval = body.split("@", 1)
        m = re.fullmatch(r"\[([^,\]]+),([^,\]]+)\]", interval.strip())
        if not m:
            raise UnsupportedSpecError("cannot parse interval %r" % (interval,))
        return beta_algebraic(parse_polynomial(poly_text),
                              _parse_fraction(m.group(1), "interval endpoint"),
                              _parse_fraction(m.group(2), "interval endpoint"))
    if re.fullmatch(r"\d+(\.\d+)?", text):
        return beta_decimal(text)
    raise UnsupportedSpecError("unrecognized beta description %r" % (text,))
