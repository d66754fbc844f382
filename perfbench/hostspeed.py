"""Host speed probe.

The hosts this benchmark runs on change speed by 20-30 % over seconds to
minutes, for every process alike: a fixed pure-Python loop timed back to
back drifts that much, and CPU time drifts with wall time.  Medians over
a run do not remove a drift that lasts longer than the run.

So every timed report is bracketed by probes: a fixed piece of pure-Python
work that shares no code with shiftlab (integer arithmetic, tuples through
sets, dicts and frozensets, the operations shiftlab's inner loops are made
of).  A
time is reported at reference speed: measured seconds times
REFERENCE_S / (probe seconds around it).  A change to shiftlab cannot move
the probe, so reported times still move with the program and not with
the host.
"""

import time

# Median probe time on the host the bounds were set on (Python 3.11,
# 2 CPUs); it only fixes the unit, so that reported times are close to
# raw seconds there.
REFERENCE_S = 0.012
ROUNDS = 10000
WORDS = 3000


def probe():
    """Seconds one fixed piece of pure-Python work takes right now: an
    arithmetic loop, then tuples pushed through a set, a dict and
    frozensets, which is how shiftlab spends its time."""
    t0 = time.perf_counter()
    x = 1
    counts = {}
    for i in range(ROUNDS):
        x = (x * 1103515245 + 12345) & 0xFFFFFFFF
        key = (x & 255, i & 7)
        counts[key] = counts.get(key, 0) + 1
    words = [(i & 1, (i >> 1) & 1, (i >> 2) & 3, i % 7, i % 11) for i in range(WORDS)]
    seen = {w[1:] + (w[0],) for w in words}
    groups = {}
    for i, w in enumerate(words):
        if w[:-1] + (1,) in seen:
            groups.setdefault(w[2:], []).append(i)
    len({frozenset(w) for w in words})
    return time.perf_counter() - t0
