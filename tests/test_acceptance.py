"""Release acceptance suite.

One test per numbered claim, so a verbose run reads as a checklist.
Randomized claims are checked against independent brute-force oracles
written from the definitions (no shared code with the library); example
claims pin frozen values.  Stated runtime budgets are asserted.

Criterion 11 is asserted exactly as claimed and is expected to fail:
lengths 3, 6, and 10 carry no minimal forbidden word for the doubling
substitution.  The companion regression test freezes the computed table.
"""

import math
import random
import time
from itertools import chain, combinations, product

import pytest

from shiftlab import (Alphabet, BlockCode, FiniteTypeSpec, InducedSpec,
                      NotAnAutomorphismError, Substitution, apply_block_code,
                      automorphism_invariance_check, beta_expand,
                      beta_ls_diagnostic, beta_presentation, build_block_graph,
                      cassaigne_profile, complexity, example_nonempty_shift,
                      finite_type_presentation, full_shift, induce_recode,
                      is_sft, language_equal_exact, language_equal_up_to,
                      ls_report, mfw_length_set, minimal_forbidden,
                      nu_cylinder_measure, parry_measure, parse_beta_spec,
                      per_count, per_le_enumerate, sft_oracle, sofic_entropy,
                      sofic_oracle, speedup_gap_compare, subst_oracle,
                      tau_eval, theorem1_diagnostic, weak_star_distance)

GOLDEN = (1 + math.sqrt(5)) / 2


# ---- independent oracles (definitions only, no library calls) --------------

def scan_ok(w, forbidden):
    return not any(w[i:i + len(f)] == f
                   for f in forbidden for i in range(len(w) - len(f) + 1))


def brute_sets(symbols, forbidden, n_max):
    """Language level sets via greatest-fixpoint bi-extendability.

    Start from all clean windows of length K = max forbidden length - 1,
    repeatedly delete windows lacking a clean one-letter extension on
    either side, then read factors off long right-extensions.
    """
    fmax = max([len(w) for w in forbidden] + [1])
    K = max(fmax - 1, 1)
    V = set(w for w in product(symbols, repeat=K) if scan_ok(w, forbidden))
    while True:
        keep = set()
        for u in V:
            right = any(scan_ok(u + (a,), forbidden) and u[1:] + (a,) in V
                        for a in symbols)
            left = any(scan_ok((a,) + u, forbidden) and ((a,) + u)[:K] in V
                       for a in symbols)
            if right and left:
                keep.add(u)
        if keep == V:
            break
        V = keep
    sets = {n: set() for n in range(n_max + 1)}
    if V:
        sets[0].add(())
    level = set(V)
    for _ in range(max(n_max - K, 0)):
        nxt = set()
        for u in level:
            for a in symbols:
                v = u + (a,)
                if scan_ok(v, forbidden) and v[-K:] in V:
                    nxt.add(v)
        level = nxt
    for w in level:
        for n in range(1, n_max + 1):
            for i in range(len(w) - n + 1):
                sets[n].add(w[i:i + n])
    return sets


def brute_mfw(symbols, sets, n_max):
    out = {}
    missing1 = [(a,) for a in symbols if (a,) not in sets[1]]
    if missing1 and sets[0]:
        out[1] = sorted(missing1)
    for n in range(2, n_max + 1):
        bad = []
        for w in product(symbols, repeat=n):
            if w in sets[n]:
                continue
            if w[:-1] in sets[n - 1] and w[1:] in sets[n - 1]:
                bad.append(w)
        if bad:
            out[n] = sorted(bad)
    return out


def brute_periodic(symbols, forbidden, p):
    # w^inf lies in the shift iff every window of the repetition is clean
    fmax = max([len(f) for f in forbidden] + [1])
    reps = -(-(p + fmax) // p) + 1
    return set(w for w in product(symbols, repeat=p)
               if scan_ok(w * reps, forbidden))


def powerset(xs):
    return chain.from_iterable(combinations(xs, r) for r in range(len(xs) + 1))


# ---- the numbered claims ----------------------------------------------------

def test_criterion_01_mfw_matches_brute_force():
    rng = random.Random(1138)
    t0 = time.time()
    failures = []
    for trial in range(200):
        k = rng.choice([2, 2, 3])
        symbols = tuple("abc"[:k])
        alph = Alphabet(symbols)
        nf = rng.randrange(0, 5)
        forb = set()
        for _ in range(nf):
            length = rng.randrange(1, 5)
            forb.add(tuple(rng.choice(symbols) for _ in range(length)))
        forb = frozenset(forb)
        spec = FiniteTypeSpec(alph, forb)
        sets = brute_sets(symbols, forb, 8)
        expect = brute_mfw(symbols, sets, 8)
        if not sets[0]:
            g = finite_type_presentation(spec)
            if g.states:
                failures.append((trial, "expected empty shift"))
            continue
        oracle = sofic_oracle(finite_type_presentation(spec), 9)
        table = minimal_forbidden(oracle, 8)
        got = {n: sorted(ws) for n, ws in table.by_length.items()}
        if got != expect:
            failures.append((trial, sorted(forb)))
    assert failures == []
    assert time.time() - t0 < 30


def test_criterion_02_nonempty_shift_round_trip():
    rng = random.Random(2718)
    t0 = time.time()
    for _ in range(50):
        size = rng.randrange(1, 6)
        targets = frozenset(rng.sample(range(3, 13), size))
        spec = example_nonempty_shift(targets)
        lengths = mfw_length_set(finite_type_presentation(spec), 14)
        assert lengths == tuple(sorted(targets))
    assert time.time() - t0 < 10


def test_criterion_03_even_shift_diagnostics(even_graph):
    t0 = time.time()
    theorem1 = theorem1_diagnostic(even_graph, 41)
    assert theorem1.mfw_lengths == tuple(range(3, 42, 2))
    assert theorem1.tag.is_sft is False
    assert theorem1.density_lower_bound >= 0.45
    assert time.time() - t0 < 10


def test_criterion_04_golden_mean_beta_shift(golden_spec):
    number = parse_beta_spec("poly:x^2-x-1@[1.6,1.7]")
    expansion = beta_expand(number, 12)
    assert expansion.status == "finite"
    assert expansion.digits == (1, 1)
    star = expansion.working_stream()
    assert star.digits == (1, 0)
    assert star.preperiod == 0
    assert star.period == 2
    presentation = beta_presentation(star)
    assert language_equal_exact(presentation,
                                finite_type_presentation(golden_spec))
    assert is_sft(presentation).is_sft is True
    assert sofic_entropy(presentation) == pytest.approx(math.log(GOLDEN),
                                                        abs=1e-9)


def test_criterion_05_phi_squared_beta_shift():
    number = parse_beta_spec("poly:x^2-3x+1@[2.5,2.7]")
    expansion = beta_expand(number, 32)
    assert expansion.status == "eventually-periodic"
    assert expansion.preperiod == 1
    assert expansion.period == 1
    assert expansion.digits[:4] == (2, 1, 1, 1)
    stream = expansion.working_stream()
    assert is_sft(beta_presentation(stream)).is_sft is False
    assert beta_ls_diagnostic(stream, 24).verdict == "unstable-evidence"


def test_criterion_06_periodic_count_identities():
    rng = random.Random(4181)
    failures = []
    for trial in range(100):
        k = rng.choice([2, 2, 3])
        symbols = tuple("abc"[:k])
        alph = Alphabet(symbols)
        forb = frozenset(
            tuple(rng.choice(symbols) for _ in range(rng.randrange(1, 5)))
            for _ in range(rng.randrange(0, 5)))
        g = build_block_graph(FiniteTypeSpec(alph, forb))
        for p in range(1, 9):
            cnt = per_count(g, p)
            if len(brute_periodic(symbols, forb, p)) != cnt:
                failures.append(("count", trial, p))
                break
            minimal = {}
            for _, q in per_le_enumerate(g, p):
                minimal[q] = minimal.get(q, 0) + 1
            total = sum(minimal.get(d, 0)
                        for d in range(1, p + 1) if p % d == 0)
            if total != cnt:
                failures.append(("divisor-sum", trial, p))
                break
    assert failures == []


def test_criterion_07_short_period_in_every_image():
    rng = random.Random(9281)
    t0 = time.time()
    symbols = ("0", "1")
    alph = Alphabet(symbols)
    bound = 1 + 2 ** 3
    checked = 0
    trial = 0
    worst = 0
    failures = []
    while checked < 200 and trial < 2000:
        trial += 1
        forb = frozenset(
            tuple(rng.choice(symbols) for _ in range(rng.randrange(1, 4)))
            for _ in range(rng.randrange(0, 4)))
        g = build_block_graph(FiniteTypeSpec(alph, forb))
        if not g.vertices:
            continue
        radius = rng.randrange(0, 2)
        rule = {w: rng.choice(symbols)
                for w in product(symbols, repeat=2 * radius + 1)}
        lab = apply_block_code(g, BlockCode(alph, alph, radius, rule))
        if not lab.states:
            continue
        checked += 1
        points = per_le_enumerate(lab, bound)
        found = min((q for _, q in points), default=None)
        if found is None:
            failures.append((trial, sorted(forb), radius))
        else:
            worst = max(worst, found)
    assert checked == 200
    assert failures == []
    assert worst <= bound
    assert time.time() - t0 < 60


def test_criterion_08_shared_language_shares_periodic_sets(alph2):
    cands = [("0",), ("1",), ("0", "0"), ("0", "1"), ("1", "0"), ("1", "1")]
    codes = [BlockCode(alph2, alph2, 0, {("0",): img0, ("1",): img1})
             for img0 in alph2.symbols for img1 in alph2.symbols]
    images = []
    for forb in powerset(cands):
        g = build_block_graph(FiniteTypeSpec(alph2, frozenset(forb)))
        if not g.vertices:
            continue
        for code in codes:
            lab = apply_block_code(g, code)
            if lab.states:
                images.append(lab)
    assert len(images) == 116

    def per_le_sets(lab, pmax):
        return per_le_enumerate(lab, pmax)

    # group by language agreement to depth 13 > 3 * 2^2, then demand
    # identical periodic data inside every group
    groups = []
    for lab in images:
        for rep, members in groups:
            if language_equal_up_to(rep, lab, 13):
                members.append(lab)
                break
        else:
            groups.append((lab, [lab]))
    assert len(groups) == 9
    pairs = 0
    for rep, members in groups:
        base = per_le_sets(members[0], 3)
        for lab in members[1:]:
            pairs += 1
            assert per_le_sets(lab, 3) == base
    assert pairs == 107


def test_criterion_09_periodic_measures_near_parry(golden_graph, full2_spec):
    t0 = time.time()
    nu_golden = nu_cylinder_measure(golden_graph, 30, 3)
    distance = weak_star_distance(nu_golden, parry_measure(golden_graph), 3)
    assert distance <= 0.05
    full2 = build_block_graph(full2_spec)
    nu_full = nu_cylinder_measure(full2, 20, 3)
    distance = weak_star_distance(nu_full, parry_measure(full2), 3)
    assert distance <= 0.02
    assert time.time() - t0 < 60


def test_criterion_10_flip_invariance_and_rejection(alph2):
    g = full_shift(alph2)
    oracle = sft_oracle(g, 12)
    flip = BlockCode(alph2, alph2, 0, {("0",): "1", ("1",): "0"})
    for n in (4, 8, 12):
        report = automorphism_invariance_check(
            oracle, per_le_enumerate(g, n), n, flip, flip, 3, 1e-9)
        assert report.distance == 0
        assert report.within_tol
    rule = {w: "1" if w[1] == "1" and w[2] == "1" else "0"
            for w in product(alph2.symbols, repeat=3)}
    and_code = BlockCode(alph2, alph2, 1, rule)
    with pytest.raises(NotAnAutomorphismError):
        automorphism_invariance_check(oracle, per_le_enumerate(g, 6), 6,
                                      and_code, and_code, 3, 1e-9)


@pytest.fixture(scope="module")
def doubling_ls(run_doubler):
    oracle = subst_oracle(run_doubler, 21)
    return oracle, ls_report(minimal_forbidden(oracle, 20))


def test_criterion_11_doubling_substitution_ls(doubling_ls):
    _, report = doubling_ls
    assert report.window_densities[8] >= 0.5
    powers = {4, 8, 16}
    present = set(report.ls_set)
    # expected to fail: 3, 6 and 10 carry no minimal forbidden word
    missing = [n for n in range(3, 21)
               if n not in powers and n not in present]
    assert missing == []


def test_criterion_11_regression_doubling_table(doubling_ls):
    # computed truth, frozen: 0 1^m 0 is minimal forbidden exactly when
    # m is not a power of two (00 is m = 0).  Other words appear too:
    # 01010 and 11011 at length 5, and one pair at each of lengths 9 and
    # 18, where the pair is the only one (16 is a power of two); horizon
    # 130 adds pairs at 38 and 82
    oracle, report = doubling_ls
    assert report.ls_set == (2, 5, 7, 8, 9) + tuple(range(11, 21))
    assert report.window_densities[8] == 0.5
    for m in range(1, 16):
        word = ("0",) + ("1",) * m + ("0",)
        assert oracle.contains(word) == (m in (1, 2, 4, 8))


def test_criterion_12_fibonacci_is_stable_evidence(fib):
    profile = cassaigne_profile(subst_oracle(fib, 16), 15)
    assert profile.differences == (1,) * 15
    assert profile.liminf_evidence == 1
    report = ls_report(minimal_forbidden(subst_oracle(fib, 21), 20))
    assert report.ls_set == (2, 3, 5, 8, 13)
    assert report.max_gap >= 5


def test_criterion_13_speedup_recodings(golden_oracle, fib):
    # constant return time 1 over the full window set shifts complexity
    spec = InducedSpec(golden_oracle, 1, None, 1)
    induced = induce_recode(spec, 10)
    p_base = complexity(golden_oracle, 12)
    p_induced = complexity(induced, 10)
    assert p_induced[0] == 1
    for n in range(1, 11):
        assert p_induced[n] == p_base[n + 2]

    # first-return induction on the Fibonacci shift: consecutive minimal
    # forbidden lengths stay within the return-time gap bound
    base = subst_oracle(fib, 44)
    clopen = frozenset(w for w in base.words_of_length(3) if w[1] == "0")
    report = speedup_gap_compare(base, InducedSpec(base, 1, clopen,
                                                   "first-return", 8), 20)
    assert report.base_ls.ls_set == (2, 3, 5, 8, 13)
    assert report.induced_ls.ls_set == (2, 4, 7, 12)
    assert report.min_rho == 1
    assert report.max_rho == 2
    assert report.rows
    assert all(row["satisfied"] for row in report.rows)
    assert [tuple(row["induced_pair"]) for row in report.rows] == \
        [(2, 4), (4, 7), (7, 12)]
    assert [tuple(row["witness"]) for row in report.rows] == \
        [(2, 3), (3, 8), (8, 13)]


def test_criterion_14_tau_values():
    # cross-check against a term-by-term big-integer evaluation
    def independent(n):
        return n ** (5 * n + 1) + n ** (4 * n + 1) + 2 * n

    for n, expect in ((1, 4), (2, 2564), (3, 44641050)):
        assert tau_eval(n) == expect
        assert independent(n) == expect
    assert tau_eval(10) == independent(10)
