"""Substitution shifts, complexity diagnostics, and induced-map recodings.

The substitution language is the set of subwords of iterates of the seed
letter (the one-sided closure the worked examples use), not the minimal
two-sided substitutive system; the two differ for non-primitive rules
and the examples here are deliberately non-primitive.  Words are coded
as strings of one character per letter (``_coding``).  The oracle
recognizes the language exactly with one suffix automaton that only
grows (``subst_oracle``), its state a node and the length read, so a
step spells no word; ``_coded_levels`` computes the same language level
by level, as the tests' independent reference.

Induced and sped-up systems are recoded over a superalphabet of
(2N+1)-windows.  A superword is allowed when some base word realizes it:
windows placed at the visit times the return rule prescribes, with a
no-earlier-visit constraint when the rule is first-return.  Both the
first-return times and the induced oracle walk a window's continuations
as (last window, base state) pairs, one base letter at a time
(``_extend``): continuations that reach the same pair have the same
future, so no continuation word is spelled.  The induced oracle's state
is the last window and the base states the realizations so far reach,
so it stays inside what the base horizon certifies.  A spec resolves
its superletters and return times once, on first demand
(``induced_data``), and keeps them, also across ``rebase`` onto a
longer realization of its base; ``base_horizon`` is the one statement
of how much base horizon an induced length needs.
"""

from .errors import (HorizonExceededError, InfeasibleSetError,
                     NonGrowingSubstitutionError, ReturnTimeCapError,
                     UnsupportedSpecError)
from .forbidden import ls_report, minimal_forbidden_lengths
from .language import (Alphabet, LanguageOracle, complexity, format_word,
                       stepping_oracle)
from .record import Record


class Substitution:
    """Letter-to-word rules iterated from a seed letter.

    Construction verifies the iterates grow without bound, from the
    letter counts of the first 2n iterates over n letters: past n steps
    every letter left recurs (a walk of n steps passes a cycle of the
    occurrence graph), so bounded lengths are constant from n on, and a
    recurring letter with an image of length >= 2 occurs at some step in
    [n, 2n).  So the iterates grow iff |tau^2n(seed)| > |tau^n(seed)|.
    """

    def __init__(self, rules, seed):
        self.rules = rules
        self.seed = seed
        if not rules:
            raise UnsupportedSpecError("substitution needs at least one letter")
        if seed not in rules:
            raise UnsupportedSpecError("seed %r has no rule" % (seed,))
        for a, image in rules.items():
            if not image:
                raise NonGrowingSubstitutionError("empty image for %r" % (a,))
            for b in image:
                if b not in rules:
                    raise UnsupportedSpecError(
                        "image letter %r of %r has no rule" % (b, a))
        if not self._grows():
            raise NonGrowingSubstitutionError(
                "iterates of %r stay bounded" % (seed,))

    @property
    def alphabet(self):
        return Alphabet(tuple(sorted(self.rules)))

    def _grows(self):
        n = len(self.rules)
        counts, lengths = {self.seed: 1}, [1]
        for _ in range(2 * n):
            after = {}
            for a, c in counts.items():
                for b in self.rules[a]:
                    after[b] = after.get(b, 0) + c
            counts = after
            lengths.append(sum(counts.values()))
        return lengths[2 * n] > lengths[n]


def _coding(tau):
    """One character per letter, ``chr`` of its index in the alphabet,
    and the rules as one ``str.translate`` table on that coding.

    Code points follow the alphabet's order, so coded words of one
    length sort as the words do.
    """
    code = {a: chr(i) for i, a in enumerate(tau.alphabet.symbols)}
    table = {ord(code[a]): "".join(code[b] for b in image)
             for a, image in tau.rules.items()}
    return code, table


def _coded_levels(tau, h):
    """``levels[n]``: the length-n subwords of the iterates of the seed,
    n <= h, as coded strings (see ``_coding``).

    Once |u| >= h, the length-h subwords of tau(u) are those of tau(v)
    over the length-h subwords v of u: h letters of tau(u) lie in the
    image of at most h consecutive letters of u.  Iterates never shrink,
    so the top level is the closure of the first iterate of length >= h
    under v -> subwords(tau(v), h), a finite set.  A length-n subword of
    a longer word begins or ends one of length n+1, so each lower level
    is read off the level above, plus the iterates of exactly length n.
    The oracle does not read these levels; they are the tests' reference.
    """
    code, table = _coding(tau)
    short = {}
    word = code[tau.seed]
    while len(word) < h:
        short.setdefault(len(word), set()).add(word)
        word = word.translate(table)
    top = {word[i:i + h] for i in range(len(word) - h + 1)}
    todo = list(top)
    while todo:
        image = todo.pop().translate(table)
        for i in range(len(image) - h + 1):
            w = image[i:i + h]
            if w not in top:
                top.add(w)
                todo.append(w)
    levels = [top]
    for n in range(h - 1, -1, -1):
        above = levels[-1]
        levels.append({w[:-1] for w in above} | {w[1:] for w in above}
                      | short.get(n, set()))
    levels.reverse()
    return levels


def _factor_levels(tau, h):
    """``_coded_levels`` decoded to words, tuples of letters."""
    symbols = tau.alphabet.symbols
    return [{tuple(symbols[ord(c)] for c in w) for w in level}
            for level in _coded_levels(tau, h)]


def _cover(word, table, h):
    """Pieces whose length-h windows are exactly the length-h subwords of
    the iterates, from ``word``, the first coded iterate of length >= h.

    Each frontier word's windows are scanned against those seen, and each
    maximal run of new windows is one piece; the next frontier is the
    images of the pieces.  A window of tau(c) lies in tau(v) for some
    window v of c (see ``_coded_levels``), so every window of the closure
    is scanned, and each new one is emitted once.
    """
    seen, frontier = set(), [word]
    while frontier:
        pieces = []
        for c in frontier:
            run = None
            for i in range(len(c) - h + 1):
                w = c[i:i + h]
                if w not in seen:
                    seen.add(w)
                    if run is None:
                        run = i
                elif run is not None:
                    pieces.append(c[run:i - 1 + h])
                    run = None
            if run is not None:
                pieces.append(c[run:])
        yield from pieces
        frontier = [c.translate(table) for c in pieces]


def subst_oracle(tau, horizon):
    """Language oracle of the substitution system, exact to the horizon.

    The oracle keeps one suffix automaton (Blumer et al., TCS 40, 1985)
    of a text that only grows.  Growing it to height h appends the
    pieces of ``_cover`` at h and the iterates shorter than h, but at
    least the old height, that the first longer iterate does not contain;
    each is followed by one shared separator, so no letter-only factor
    spans two pieces.  Every piece is a factor of an iterate, and every
    factor of length <= h lies in a piece, so the letter-only factors of
    the text up to the height are exactly the language.

    The state is (node, length read): no word is spelled.  Extending the
    text can clone a node, and the clone takes its shorter words, so a
    step first follows suffix links while they still hold its length;
    that is one comparison when nothing was cloned.  A step that reaches
    the height grows the text to the longest length a caller has passed
    to ``check_horizon``, or twice the height, capped at the horizon but
    never short of the step, so the cost follows the lengths asked for,
    not the horizon.  Transitions are flat per-letter lists, -1 for none;
    node 0 is a sentinel of length -1 that steps every letter to the
    root, node 1.
    """
    code, table = _coding(tau)
    seed = code[tau.seed]
    cols = [[1, -1] for _ in range(len(code) + 1)]  # the last: the separator
    column = {a: cols[ord(c)] for a, c in code.items()}
    sep = chr(len(code))
    link, length = [0, 0], [-1, 0]
    demand = [0]
    last, height = 1, 0

    def append(text):
        nonlocal last
        for ch in text:
            col = cols[ord(ch)]
            cur = len(length)
            length.append(length[last] + 1)
            link.append(1)
            for c in cols:
                c.append(-1)
            p = last
            while col[p] < 0:
                col[p] = cur
                p = link[p]
            q = col[p]
            if length[p] + 1 == length[q]:
                link[cur] = q
            else:
                clone = len(length)
                length.append(length[p] + 1)
                link.append(link[q])
                for c in cols:
                    c.append(c[q])
                while col[p] == q:
                    col[p] = clone
                    p = link[p]
                link[q] = link[cur] = clone
            last = cur

    def grow(n):
        nonlocal height
        h = max(n + 1, min(horizon, max(demand[0], 2 * (height + 1))))
        word, short = seed, []
        while len(word) < h:
            if len(word) >= height:
                short.append(word)
            word = word.translate(table)
        for piece in short:
            if piece not in word:
                append(piece + sep)
        for piece in _cover(word, table, h):
            append(piece + sep)
        height = h

    def step(state, letter):
        node, n = state
        if n >= height:
            grow(n)
        while length[link[node]] >= n:
            node = link[node]
        after = column[letter][node]
        return None if after < 0 else (after, n + 1)

    return LanguageOracle(tau.alphabet, (1, 0), step, horizon, demand=demand)


class ComplexityProfile:
    """First differences of the complexity function with a tail summary."""

    def __init__(self, differences, liminf_evidence, tail_window):
        self.differences = differences
        self.liminf_evidence = liminf_evidence
        self.tail_window = tail_window


def cassaigne_profile(oracle, n_max):
    """p(n+1) - p(n) for n = 0..n_max-1.

    A bounded profile is the linear-complexity signature; the summary
    reports the minimum over the last third as liminf evidence.
    """
    counts = complexity(oracle, n_max)
    diffs = tuple(counts[n + 1] - counts[n] for n in range(n_max))
    tail = max(1, n_max // 3)
    evidence = min(diffs[-tail:]) if diffs else 0
    return ComplexityProfile(diffs, evidence, tail)


def bispecial_lengths(oracle, n_max):
    """Lengths up to n_max carrying at least one bispecial word.

    A word w is walked as its state and the states of its left
    extensions aw, so w is left special when two of those are alive and
    right special when two letters step its own state.  A word with one
    left extension has no left-special right extension, so the walk
    keeps only left-special words, each combined state once.
    """
    oracle.check_horizon(n_max + 1)
    if oracle.start is None or n_max < 0:
        return ()
    step, letters = oracle.step, oracle.alphabet.symbols

    def left_special(lefts):
        return sum(q is not None for q in lefts) >= 2

    start = (oracle.start, tuple(step(oracle.start, a) for a in letters))
    level = {start} if left_special(start[1]) else set()
    out = []
    for n in range(n_max + 1):
        if any(sum(step(state, c) is not None for c in letters) >= 2
               for state, _ in level):
            out.append(n)
        if n == n_max:
            break
        after = set()
        for state, lefts in level:
            for c in letters:
                nxt = step(state, c)
                if nxt is None:
                    continue
                grown = tuple(None if q is None else step(q, c) for q in lefts)
                if left_special(grown):
                    after.add((nxt, grown))
        level = after
    return tuple(out)


# ---- induced maps and speedups -------------------------------------------

# base letters first-return resolution walks past a window by default
RETURN_CAP = 32


class InducedSpec(Record):
    """Recoding data for an induced or sped-up system.

    ``base`` is a language oracle of the base shift.  The set U is given
    by the (2N+1)-windows it allows (None means every allowed window).
    ``return_rule`` is a constant, a per-window map, or "first-return";
    either way the return time must be constant on (2N+1)-cylinders,
    which first-return resolution verifies by walking each window's
    continuations ``cap`` base letters far.  ``induced_data`` resolves a
    spec once and keeps the result on it; ``rebase`` carries it to a
    longer base, and any other copy made with ``replace`` resolves afresh.
    """

    _fields = ("base", "window", "clopen_set", "return_rule", "cap")

    def __init__(self, base, window, clopen_set=None, return_rule=1, cap=RETURN_CAP):
        self.base = base
        self.window = window
        self.clopen_set = clopen_set
        self.return_rule = return_rule
        self.cap = cap
        if window < 0:
            raise UnsupportedSpecError("window radius must be >= 0")
        if isinstance(return_rule, int) and return_rule < 1:
            raise UnsupportedSpecError("return times must be >= 1")


def _superletters(spec):
    """Allowed (2N+1)-windows forming U, in lex order."""
    width = 2 * spec.window + 1
    spec.base.check_horizon(width)
    allowed = spec.base.words_of_length(width)
    if spec.clopen_set is None:
        chosen = list(allowed)
    else:
        wanted = set()
        for w in spec.clopen_set:
            w = tuple(w)
            if len(w) != width:
                raise UnsupportedSpecError(
                    "clopen set word %r is not a %d-window" % (w, width))
            spec.base.alphabet.check_word(w)
            wanted.add(w)
        chosen = [w for w in allowed if w in wanted]
    if not chosen:
        raise InfeasibleSetError("U misses the base language entirely")
    return sorted(chosen, key=spec.base.alphabet.key)


def _extend(pairs, letters, step):
    """The (last window, base state) pairs one base letter further: each
    state stepped by each of ``letters`` it can read, the letter shifted
    into the window."""
    grown = set()
    for window, q in pairs:
        for a in letters:
            after = step(q, a)
            if after is not None:
                grown.add((window[1:] + (a,), after))
    return grown


def _resolve_first_return(spec, letters):
    """Return time of each U-window, by walking its continuations.

    The continuations of a window w are walked as (last window, base
    state) pairs from (w, state(w)), ``cap`` base letters far.  A pair
    whose window lies in U has returned at that step and is dropped.  A
    pair left after ``cap`` steps never returns within the cap; else the
    times recorded must be one, and none means w has no continuation.
    A window with two faults reports the cap first.
    """
    width = 2 * spec.window + 1
    uset = set(letters)
    spec.base.check_horizon(width + spec.cap)
    state_of = dict(zip(*spec.base.frontier(width)))
    step, base_letters = spec.base.step, tuple(spec.base.alphabet)
    rho = {}
    for w in letters:
        frontier, times = {(w, state_of[w])}, set()
        for t in range(1, spec.cap + 1):
            if not frontier:
                break
            grown = _extend(frontier, base_letters, step)
            frontier = {p for p in grown if p[0] not in uset}
            if len(frontier) < len(grown):
                times.add(t)
        if frontier:
            raise ReturnTimeCapError(
                "no return within %d steps after %r" % (spec.cap, format_word(w)))
        if not times:
            raise ReturnTimeCapError(
                "window %r admits no continuation" % (format_word(w),))
        if len(times) > 1:
            raise UnsupportedSpecError(
                "first-return time is not constant on the cylinder %r"
                % (format_word(w),))
        rho[w] = times.pop()
    return rho


def induced_data(spec):
    """(superletter windows, return-time map) for the recoding, resolved
    on the first call and kept on the spec, so every later call returns
    the same pair."""
    data = spec.__dict__.get("_data")
    if data is not None:
        return data
    letters = _superletters(spec)
    if spec.return_rule == "first-return":
        rho = _resolve_first_return(spec, letters)
    elif isinstance(spec.return_rule, dict):
        rho = {}
        for w in letters:
            value = spec.return_rule.get(tuple(w))
            if value is None:
                raise UnsupportedSpecError(
                    "return rule missing window %r" % (format_word(w),))
            if value < 1:
                raise UnsupportedSpecError("return times must be >= 1")
            rho[w] = value
    else:
        rho = {w: spec.return_rule for w in letters}
    spec.__dict__["_data"] = data = (letters, rho)
    return data


def rebase(spec, oracle):
    """``spec`` over ``oracle``, a longer realization of the same base
    document, keeping the resolution of ``spec``.  Resolution reads the
    base to width + cap letters (first-return) or width (otherwise),
    where both realizations are exact and agree."""
    out = spec.replace(base=oracle)
    out.__dict__["_data"] = induced_data(spec)
    return out


def base_horizon(spec, n):
    """Base horizon that certifies induced words up to length n: n + 2
    returns of the longest return time, plus one window."""
    return (n + 2) * max(induced_data(spec)[1].values()) + 2 * spec.window + 1


def _induced_length(spec, horizon):
    """The inverse of ``base_horizon``: the longest induced length that a
    base horizon certifies."""
    return (horizon - 2 * spec.window - 1) // max(induced_data(spec)[1].values()) - 2


def induce_recode(spec, n):
    """Language oracle of the induced (sped-up) system, reliable to n.

    Superletters are the U-windows; a superword is allowed iff some base
    word realizes it, windows landing at the partial sums of the return
    times, never hitting U in between when the rule is first-return.

    The state after a superword is its last window and the set of base
    states that its realizations reach.  Every realization ends in that
    window, and the base state carries the rest of it, so one more
    superletter s after the window w appends rho(w) base letters to each
    state, walked as (window, state) pairs (``_extend``): the windows
    they complete must miss U before the last letter (first-return only)
    and equal s at the last letter.  The first superletter is the case
    rho = width from the window s itself, with no first-return filter.
    """
    letters, rho = induced_data(spec)
    width = 2 * spec.window + 1
    needed = base_horizon(spec, n)
    if spec.base.max_reliable_length < needed:
        raise HorizonExceededError(
            "induced length %d needs base horizon %d" % (n, needed))
    uset = set(letters)
    first_return = spec.return_rule == "first-return"
    base_step = spec.base.step
    base_letters = tuple(spec.base.alphabet)
    symbol_for = {w: format_word(w) for w in letters}
    word_for = {format_word(w): w for w in letters}
    alphabet = Alphabet(tuple(symbol_for[w] for w in letters))

    def step(state, symbol):
        last, states = state
        target = word_for[symbol]
        r = width if last is None else rho[last]
        frontier = {(target if last is None else last, q) for q in states}
        for j in range(1, r + 1):
            # the last `width` letters appended are those of the target
            forced = j - 1 - (r - width)
            choices = (target[forced],) if forced >= 0 else base_letters
            frontier = _extend(frontier, choices, base_step)
            if j < r and first_return and last is not None:
                frontier = {p for p in frontier if p[0] not in uset}
        reached = frozenset(q for window, q in frontier if window == target)
        return (target, reached) if reached else None

    start = (None, frozenset((spec.base.start,)))
    return stepping_oracle(alphabet, start, step, n)


class SpeedupReport:
    """Side-by-side stability evidence for a base shift and its speedup.

    Each correlation row checks the return-time bound on consecutive
    induced minimal-forbidden lengths: some pair of base lengths in the
    matching windows may differ by at most (dl + 2) * max rho.  The
    report does not verify that the return rule defines a homeomorphism;
    that hypothesis is taken on faith and recorded here.
    """

    def __init__(self, base_ls, induced_ls, rows, min_rho, max_rho,
                 note="return map assumed to induce a homeomorphism; not verified"):
        self.base_ls = base_ls
        self.induced_ls = induced_ls
        self.rows = rows
        self.min_rho = min_rho
        self.max_rho = max_rho
        self.note = note


def speedup_gap_compare(base_oracle, spec, horizon):
    """Compare minimal-forbidden-length patterns across a speedup."""
    base_report = ls_report(minimal_forbidden_lengths(base_oracle, horizon))
    _, rho = induced_data(spec)
    width = 2 * spec.window + 1
    max_rho = max(rho.values())
    min_rho = min(rho.values())
    n_ind = _induced_length(spec, base_oracle.max_reliable_length)
    if n_ind < 2:
        raise HorizonExceededError("base horizon too small for any induced words")
    induced = induce_recode(spec, n_ind)
    induced_report = ls_report(minimal_forbidden_lengths(induced, n_ind))

    def window_for(ell):
        lo = max(1, (width - 1) + (ell - 2) * min_rho - max_rho + 1)
        hi = (width - 1) + (ell - 1) * max_rho + 1
        return lo, hi

    base_ls = set(base_report.ls_set)
    rows = []
    lengths = [l for l in induced_report.ls_set if l >= 2]
    for l1, l2 in zip(lengths, lengths[1:]):
        lo1, hi1 = window_for(l1)
        lo2, hi2 = window_for(l2)
        hits1 = [b for b in base_ls if lo1 <= b <= hi1]
        hits2 = [b for b in base_ls if lo2 <= b <= hi2]
        bound = (l2 - l1 + 2) * max_rho
        witness = next(((b1, b2) for b1 in hits1 for b2 in hits2
                        if b1 <= b2 and b2 - b1 <= bound), None)
        rows.append({
            "induced_pair": (l1, l2),
            "base_window_low": window_for(l1),
            "base_window_high": window_for(l2),
            "bound": bound,
            "witness": witness,
            "satisfied": witness is not None,
        })
    return SpeedupReport(base_report, induced_report, tuple(rows),
                         min_rho, max_rho)
