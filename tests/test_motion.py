"""Certificate machinery: exact sums, closed-form bounds, slope action."""

import itertools
import math
import os
import random
import subprocess
import sys
import time
import tracemalloc
from collections.abc import Sequence
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from distchrom.algebra import least_prime_divisor, partition_count
from distchrom.coloring import Coloring, is_distinguishing, is_proper
from distchrom.families import INFINITY, pgammal3_action, pgl3_action, slope_graph, slope_of
from distchrom.graphcore import Graph, automorphism_group
from distchrom.motion import (
    HalfPowerBound,
    InvalidParameters,
    MotionReport,
    exact_expected_fixers,
    favorable_fraction,
    levi_bound,
    lg1_bound,
    lovasz_schrijver_check,
    max_fixed_ksets,
    motion,
    randomized_split_search,
    slope_mobius,
    weak_bound,
)
from distchrom.permgroup import closure, induced_action_on_ksets, perm_from_cycles


def cycle(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def dihedral_c4():
    return closure(
        [perm_from_cycles(4, [(0, 1, 2, 3)]), perm_from_cycles(4, [(1, 3)])]
    )


def test_motion_examples():
    s3 = closure([perm_from_cycles(3, [(0, 1)]), perm_from_cycles(3, [(0, 1, 2)])])
    assert motion(s3) == 2
    with pytest.raises(InvalidParameters, match="no nontrivial element"):
        motion([bytes(range(5))])


def test_motion_heawood():
    from distchrom.families import levi_graph

    lg2 = levi_graph(2)
    els = closure(automorphism_group(lg2).generators)
    assert len(els) == 336
    assert motion(els) == 8


def test_exact_expected_fixers_trivial_group():
    rep = exact_expected_fixers(range(5), [bytes(range(9))], 2)
    assert rep.exact_EN == 1
    assert rep.lemma_satisfied and rep.least_prime is None
    assert rep.F_max is None


def test_exact_expected_fixers_hand_computed():
    # stabilizer of the class {0,2} inside the symmetries of a 4-cycle:
    # identity and the 0-2 mirror keep both points (theta=2 each); the
    # rotation by two and the 1-3 mirror swap them (theta=1 each).
    # Sum of 2^(theta-2): 1 + 1 + 1/2 + 1/2 = 3.
    stab = [
        tuple(range(4)),
        perm_from_cycles(4, [(1, 3)]),
        perm_from_cycles(4, [(0, 2), (1, 3)]),
        perm_from_cycles(4, [(0, 2)]),
    ]
    rep = exact_expected_fixers([0, 2], stab, 2)
    assert rep.exact_EN == Fraction(3)
    assert rep.group_order == 4 and rep.least_prime == 2
    assert not rep.lemma_satisfied  # 3 >= 2: no certificate, matching chi_D(C_4)=4
    assert rep.F_max == 2
    assert rep.theta_histogram == {2: 2, 1: 2}
    assert rep.theta_bound_ok


def test_exact_expected_fixers_errors():
    full_d4 = dihedral_c4()
    with pytest.raises(InvalidParameters, match="out of the class"):
        exact_expected_fixers([0, 2], full_d4, 2)
    with pytest.raises(InvalidParameters):
        exact_expected_fixers([0, 2], [tuple(range(4))], 1)
    with pytest.raises(InvalidParameters, match="need at least the identity"):
        exact_expected_fixers([0, 2], [], 2)
    with pytest.raises(InvalidParameters, match="the class is empty"):
        exact_expected_fixers([], [bytes(range(3))], 2)
    for c1 in ([0, 4], [-1, 0]):
        with pytest.raises(InvalidParameters, match="not a point of the degree-4 action"):
            exact_expected_fixers(c1, [tuple(range(4))], 2)
    with pytest.raises(InvalidParameters, match="share a degree"):
        exact_expected_fixers([0, 1], [(0, 1, 2, 3), (1, 0, 2, 3, 4)], 2)
    with pytest.raises(InvalidParameters, match="two class points to one point"):
        exact_expected_fixers([0, 1], [(0, 1, 2), (0, 0, 2)], 2)


class _CountingSequence(Sequence):
    """A sequence that counts the passes made over it."""

    def __init__(self, elements):
        self.elements = elements
        self.passes = 0

    def __len__(self):
        return len(self.elements)

    def __getitem__(self, i):
        return self.elements[i]

    def __iter__(self):
        self.passes += 1
        return iter(self.elements)


def test_exact_expected_fixers_reads_its_elements_once():
    els = induced_action_on_ksets(6, 2).elements()
    counted = _CountingSequence(els)
    rep = exact_expected_fixers(range(15), counted, 2)
    assert counted.passes == 1
    assert rep == _reference_fixers(range(15), list(els), 2)
    # an element of another degree is refused wherever it sits
    listed = list(els)
    for at in (1, len(listed) // 2, len(listed)):
        mixed = listed[:at] + [bytes(range(14))] + listed[at:]
        with pytest.raises(InvalidParameters, match="elements must share a degree"):
            exact_expected_fixers(range(15), mixed, 2)


def test_exact_expected_fixers_holds_no_element_list():
    # S7 on 3-sets has 5,040 elements of degree 35: as a list they take about
    # 400 KB, while the whole certificate, group built from its generators,
    # peaks near 34 KB when the elements are built as they are read.
    tracemalloc.start()
    try:
        rep = exact_expected_fixers(range(35), induced_action_on_ksets(7, 3).elements(), 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.group_order == 5040
    assert peak < 128 * 1024


def test_exact_expected_fixers_threads_match():
    # the sum runs in one process: threads=1 is the only accepted value, and
    # it gives the reference kernel's report on the C4 stabilizer, S7 on
    # 2-sets, and S5 x S4 on two blocks split on the (relabelled) first
    # block, a restriction that is not faithful
    els = dihedral_c4()
    stab = [p for p in els if set(p[v] for v in (0, 2)) == {0, 2}]
    els7 = induced_action_on_ksets(7, 2).elements()
    block, relabelled = _s5_s4_relabelled()
    cases = [([0, 2], stab), (range(21), els7), (block, closure(relabelled))]
    for c1, group in cases:
        assert exact_expected_fixers(c1, group, 2, threads=1) == _reference_fixers(c1, group, 2)
    for threads in (0, 2):
        with pytest.raises(InvalidParameters, match="threads must be 1"):
            exact_expected_fixers([0, 2], stab, 2, threads=threads)


def test_exact_expected_fixers_refuses_lists_that_are_not_groups():
    # a list is summed only when it is the whole group its elements generate
    a = perm_from_cycles(4, [(0, 1, 2)])
    with pytest.raises(InvalidParameters, match="is not a group"):
        exact_expected_fixers([0, 1, 2, 3], [(0, 1, 2, 3), (1, 2, 0, 3), (3, 0, 1, 2)], 2)
    with pytest.raises(InvalidParameters, match="repeats an element"):
        exact_expected_fixers(range(4), [tuple(range(4)), a, a], 2)
    with pytest.raises(InvalidParameters, match="not a permutation"):
        exact_expected_fixers([0, 1], [(0, 1, 2, 3), (1, 0, 2, 2)], 2)
    group = list(closure([perm_from_cycles(4, [(0, 1)]), perm_from_cycles(4, [(0, 1, 2, 3)])]))
    assert exact_expected_fixers(range(4), group, 2) == _reference_fixers(range(4), group, 2)
    for i in range(len(group)):
        with pytest.raises(InvalidParameters, match="is not a group"):
            exact_expected_fixers(range(4), group[:i] + group[i + 1 :], 2)


@pytest.mark.parametrize("degree", [6, 300], ids=["bytes", "tuple"])
@pytest.mark.parametrize(
    "cycles",
    [[[(0, 1, 2, 3)], [(3, 4)]], [[(3, 4)], [(0, 1, 2, 3)]], [[(0, 1)], [(0, 1, 2, 3, 4, 5)]]],
    ids=["mover-second", "mover-first", "mover-stripped"],
)
def test_closures_that_move_the_class_are_refused(degree, cycles):
    # Only the chain's strong generators are checked against the class.  In
    # the last case the input that moves the class strips past level 0, so
    # it is not a strong generator itself; its residue is.
    els = closure([perm_from_cycles(degree, c) for c in cycles])
    with pytest.raises(InvalidParameters, match="element moves 3 out of the class"):
        exact_expected_fixers(range(4), els, 2)


def _regular_s4():
    # S4 on its own elements by right multiplication: the base point's
    # stabilizer is trivial, so every coset is a suborbit of its own
    s4 = [perm_from_cycles(4, [(0, 1)]), perm_from_cycles(4, [(0, 1, 2, 3)])]
    els = [tuple(e) for e in closure(s4)]
    where = {e: i for i, e in enumerate(els)}
    return [tuple(where[tuple(g[x] for x in e)] for e in els) for g in s4]


def _s5_s4_relabelled():
    # S5 x S4 on two blocks, split on the relabelled first block: the
    # restriction to the class is not faithful
    rho = [(5 * i + 2) % 9 for i in range(9)]
    gens = [
        perm_from_cycles(9, [(0, 1)]),
        perm_from_cycles(9, [(0, 1, 2, 3, 4)]),
        perm_from_cycles(9, [(5, 6)]),
        perm_from_cycles(9, [(5, 6, 7, 8)]),
    ]
    return [rho[v] for v in range(5)], [tuple(rho[g[rho.index(i)]] for i in range(9)) for g in gens]


SUBORBIT_CASES = {
    # rank 4: a 3-set meets the base 3-set in 3, 2, 1 or 0 points
    "S7-on-3-sets": lambda: (range(35), induced_action_on_ksets(7, 3).generators, 2),
    "S5xS4-relabelled": lambda: (*_s5_s4_relabelled(), 3),
    "regular-S4": lambda: (range(24), _regular_s4(), 2),
    "trivial": lambda: (range(5), [tuple(range(5))], 2),
    "S5": lambda: (range(5), [perm_from_cycles(5, [(0, 1)]), perm_from_cycles(5, [tuple(range(5))])], 2),
    "PGL(3,2)": lambda: (range(7), pgl3_action(2).generators, 2),
    # S5 with 300 fixed points: tuples above degree 256, the class every point
    "S5-plus-300-fixed": lambda: (
        range(305),
        [perm_from_cycles(305, [(0, 1)]), perm_from_cycles(305, [tuple(range(5))])],
        2,
    ),
    # tuples above degree 256; the class is every point
    "D300": lambda: (
        range(300),
        [tuple((i + 1) % 300 for i in range(300)), tuple(-i % 300 for i in range(300))],
        3,
    ),
}


@pytest.mark.parametrize("name", list(SUBORBIT_CASES))
def test_fixer_sum_over_suborbits_matches_the_reference(name):
    c1, gens, t = SUBORBIT_CASES[name]()
    els = closure(gens)
    assert exact_expected_fixers(c1, els, t) == _reference_fixers(c1, list(els), t)


def _relabelled(gens, c1, seed):
    rho = list(range(len(gens[0])))
    random.Random(seed).shuffle(rho)
    moved = []
    for g in gens:
        img = [0] * len(g)
        for i, gi in enumerate(g):
            img[rho[i]] = rho[gi]
        moved.append(tuple(img))
    return moved, [rho[v] for v in c1]


@pytest.mark.parametrize(
    "spec,class_size,t",
    [
        (lambda: pgammal3_action(4), 21, 3),
        (lambda: induced_action_on_ksets(7, 3), 35, 2),
        (lambda: pgl3_action(5), 31, 2),
        (lambda: induced_action_on_ksets(9, 4), 126, 2),
    ],
    ids=["PGammaL(3,4)", "S7-on-3-sets", "PGL(3,5)", "S9-on-4-sets"],
)
def test_relabelled_groups_give_equal_reports(spec, class_size, t):
    # A relabelling moves the chain's base points, and so the blocks and
    # the way each is refined; the report must not move.
    gens = spec().generators
    expected = exact_expected_fixers(range(class_size), closure(gens), t)
    for seed in (1, 2, 3):
        moved, c1 = _relabelled(gens, range(class_size), seed)
        els = closure(moved)
        assert sum(w for _, w in els.pair_orbit_weighted()) == len(els) == expected.group_order
        assert exact_expected_fixers(c1, els, t) == expected


def test_levi_q7_exact_certificate():
    # PGL(3,7) on the 114 points and lines of PG(2,7), the 57 points split
    # in two; the value is the one the sum over all 5,630,688 elements gives
    rep = exact_expected_fixers(range(57), pgammal3_action(7).elements(), 2)
    assert rep.group_order == 5_630_688
    assert rep.exact_EN == Fraction(1126090150368183, 2**50)
    assert rep.F_max == 9
    assert rep.theta_histogram == {
        1: 1185408, 3: 1531152, 5: 1206576, 7: 268128, 9: 718200, 13: 156408, 15: 315552,
        17: 122892, 19: 65856, 21: 52136, 25: 5586, 33: 2793, 57: 1,
    }
    assert rep.lemma_satisfied
    assert rep.exact_EN < levi_bound(7, 2).as_fraction()


def test_levi_q8_exact_certificate():
    # PGammaL(3,8), of 49,448,448 elements, above the cap on a full pass: the
    # weighted sum reads far fewer.  The values are the ones the sum over one
    # coset per suborbit gives, 1,354,752 elements.
    rep = exact_expected_fixers(range(73), pgammal3_action(8).elements(), 2)
    assert rep.group_order == 49_448_448
    assert rep.exact_EN == Fraction(576461376604994013, 2**59)
    assert rep.F_max == 10
    assert rep.theta_histogram == {
        1: 5419008, 3: 4709376, 5: 9418752, 7: 1569792, 9: 20014848, 11: 1766016, 13: 1681920,
        17: 4120704, 19: 28032, 21: 257544, 25: 261632, 29: 196224, 41: 4599, 73: 1,
    }
    assert rep.theta_bound_ok
    assert rep.lemma_satisfied
    assert not levi_bound(8, 2).lt_value(rep.exact_EN)  # the bound is irrational at q = 8


def _reference_fixer_chunk(args):
    # The per-element cycle walk that the inverse-pair and Burnside kernel
    # replaced, kept verbatim as the oracle.
    elements, pts, top, pos = args
    size = len(pts)
    histogram = {}
    f_max = None
    theta_bound_ok = True
    seen = [0] * top
    stamp = 0
    for p in elements:
        stamp += 1
        for v in pts:
            img = p[v]
            if img >= top or pos[img] < 0:
                raise InvalidParameters(f"element moves {v} out of the class")
        theta = 0
        fixed = 0
        for v in pts:
            if seen[v] == stamp:
                continue
            theta += 1
            if p[v] == v:
                fixed += 1
                seen[v] = stamp
                continue
            w = v
            while seen[w] != stamp:
                seen[w] = stamp
                w = p[w]
        if 2 * theta > fixed + size:
            theta_bound_ok = False
        histogram[theta] = histogram.get(theta, 0) + 1
        if fixed < size:
            nontrivial = True
        else:
            nontrivial = any(i != v for i, v in enumerate(p))
        if nontrivial and (f_max is None or fixed > f_max):
            f_max = fixed
    return histogram, f_max, theta_bound_ok


def _reference_fixers(c1, elements, t):
    pts = sorted(set(c1))
    size = len(pts)
    top = max(pts) + 1
    pos = [-1] * top
    for i, v in enumerate(pts):
        pos[v] = i
    histogram, f_max, theta_bound_ok = _reference_fixer_chunk((elements, pts, top, pos))
    exact_en = Fraction(sum(c * t**theta for theta, c in histogram.items()), t**size)
    order = len(elements)
    if order >= 2:
        lp = least_prime_divisor(order)
        lemma = exact_en < lp
        log_cond = f_max is not None and t ** (size - f_max) > order * order
    else:
        lp, lemma, log_cond = None, True, True
    return MotionReport(order, size, t, exact_en, f_max, histogram, lp, lemma, log_cond, theta_bound_ok)


@st.composite
def fixer_cases(draw):
    """(class, element list, t) for a group acting on blocks A, B and fixed points.

    A generator permutes A and B independently, so the restriction to A need
    not be faithful.  The class is A plus, when drawn, B and the fixed points;
    200 or more fixed points push the degree past 256, and with them in the
    class the class passes 256 points too.  Points are relabelled at random,
    so the class is seldom contiguous.
    """
    a = draw(st.integers(1, 5))
    b = draw(st.integers(0, 3))
    extra = draw(st.sampled_from([0, 2, 200, 260]))
    n = a + b + extra
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        pa = draw(st.permutations(range(a)))
        pb = draw(st.permutations(range(a, a + b)))
        gens.append(tuple(pa) + tuple(pb) + tuple(range(a + b, n)))
    rho = draw(st.permutations(range(n)))
    relabelled = [tuple(rho[g[rho.index(i)]] for i in range(n)) for g in gens]
    block = list(range(a))
    if draw(st.booleans()):
        block += range(a, a + b)
    if draw(st.booleans()):
        block += range(a + b, n)
    elements = list(closure(relabelled))
    if draw(st.booleans()):
        elements = [tuple(p) for p in elements]
    draw(st.randoms(use_true_random=False)).shuffle(elements)
    return [rho[v] for v in block], elements, draw(st.integers(2, 4))


@settings(max_examples=150, deadline=None)
@given(fixer_cases())
def test_fixer_sum_matches_the_reference_kernel(case):
    c1, elements, t = case
    rep = exact_expected_fixers(c1, elements, t)
    assert rep == _reference_fixers(c1, elements, t)
    assert list(rep.theta_histogram) == sorted(rep.theta_histogram)


def test_elements_of_order_above_the_class_size_stay_cheap():
    # The cyclic group of order 27,720 = lcm(5, 7, 8, 9, 11) on 40 points:
    # most elements have order far above the class size, so theta comes from a
    # cycle walk instead of all o powers (the power loop alone took 16-19 s).
    cycles, start = [], 0
    for length in (5, 7, 8, 9, 11):
        cycles.append(tuple(range(start, start + length)))
        start += length
    elements = closure([perm_from_cycles(40, cycles)])
    assert len(elements) == 27720
    began = time.perf_counter()
    rep = exact_expected_fixers(range(40), elements, 2)
    assert time.perf_counter() - began < 5
    assert rep == _reference_fixers(range(40), elements, 2)


# Two planted faults the fixer sum must refuse, run in-process and under
# python -O.  S4 on {0,1,2,3} with two fixed points 4 and 5 and the class
# {0,1,2,3}: dropping any element that is not its own inverse must be
# refused as not a group, and each element whose restriction sorts after its
# inverse's (the member of the pair an inverse-pair sum would leave
# unevaluated) must still be caught when it is altered to send a class point
# to 4.
PLANTED_FAULTS = """
from distchrom.motion import InvalidParameters, exact_expected_fixers
from distchrom.permgroup import closure, inverse, perm_from_cycles

def refused(elements, message):
    try:
        exact_expected_fixers(range(4), elements, 2)
    except InvalidParameters as exc:
        return message in str(exc)
    return False

group = closure([perm_from_cycles(6, [(0, 1)]), perm_from_cycles(6, [(0, 1, 2, 3)])])
exact_expected_fixers(range(4), group, 2)
unpaired = [p for p in group if inverse(tuple(p)) != tuple(p)]
skipped = [p for p in group if bytes(inverse(tuple(p))[:4]) < p[:4]]
missing = [refused([q for q in group if q != p], "is not a group") for p in unpaired]
moved = []
for p in skipped:
    for v in range(4):
        bad = list(p)
        bad[v], bad[4] = bad[4], bad[v]
        elements = [bytes(bad) if q == p else q for q in group]
        moved.append(refused(elements, f"element moves {v} out of the class"))
ok = len(missing) == 14 and all(missing) and len(moved) == 28 and all(moved)
raise SystemExit(0 if ok else 1)
"""


def test_planted_faults_are_refused():
    with pytest.raises(SystemExit) as exit_info:
        exec(PLANTED_FAULTS, {})
    assert exit_info.value.code == 0
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-O", "-c", PLANTED_FAULTS], env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0


def _partitions(total, largest):
    if total == 0:
        yield ()
        return
    for first in range(min(total, largest), 0, -1):
        for rest in _partitions(total - first, first):
            yield (first,) + rest


def _cycle_index_histogram(n, k):
    # theta histogram of S_n on k-subsets from cycle types alone: n!/z_lambda
    # permutations have type lambda, and the cycles of one of them on
    # k-subsets are counted by Burnside over its powers, where an l-cycle
    # splits into gcd(l, j) cycles of length l / gcd(l, j) under the j-th
    # power and a k-subset is fixed when it is a union of whole cycles.
    histogram = {}
    for lam in _partitions(n, n):
        z = 1
        for length in set(lam):
            m = lam.count(length)
            z *= length**m * math.factorial(m)
        order = math.lcm(*lam)
        fixed_total = 0
        for j in range(order):
            poly = [1] + [0] * k
            for length in lam:
                g = math.gcd(length, j)
                for _ in range(g):
                    part = length // g
                    for deg in range(k, part - 1, -1):
                        poly[deg] += poly[deg - part]
            fixed_total += poly[k]
        theta = fixed_total // order
        histogram[theta] = histogram.get(theta, 0) + math.factorial(n) // z
    return histogram


@pytest.mark.parametrize("n,k", [(7, 2), (7, 3), (8, 3)])
def test_fixer_sum_matches_the_cycle_index(n, k):
    elements = induced_action_on_ksets(n, k).elements()
    histogram = _cycle_index_histogram(n, k)
    for t in (2, 3):
        rep = exact_expected_fixers(range(math.comb(n, k)), elements, t)
        expected = Fraction(sum(c * t**theta for theta, c in histogram.items()), t ** math.comb(n, k))
        assert rep.exact_EN == expected
        assert rep.theta_histogram == histogram


def test_randomized_split_search_trivial_stabilizer():
    # path on four vertices: the only symmetry is the reversal, which moves
    # the class {0, 2}; the stabilizer of that class is trivial, any split is
    # distinguishing
    p4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    base = Coloring.from_sequence([1, 2, 1, 2])
    rep = exact_expected_fixers([0, 2], [tuple(range(4))], 2)
    out = randomized_split_search(p4, base, class_id=1, t=2, report=rep, seed=1)
    assert is_proper(p4, out)
    assert is_distinguishing(p4, out)[0]


def test_randomized_split_search_requires_certificate():
    stab = [
        tuple(range(4)),
        perm_from_cycles(4, [(1, 3)]),
        perm_from_cycles(4, [(0, 2), (1, 3)]),
        perm_from_cycles(4, [(0, 2)]),
    ]
    rep = exact_expected_fixers([0, 2], stab, 2)
    c4 = cycle(4)
    base = Coloring.from_sequence([1, 2, 1, 2])
    with pytest.raises(InvalidParameters):
        randomized_split_search(c4, base, class_id=1, t=2, report=rep, seed=0)


def test_levi_bound_values():
    b7 = levi_bound(7, 2)
    assert b7.as_fraction() == Fraction(5630688, 2**25) + 1
    assert b7.lt_value(2)
    assert not b7.lt_value(1)
    b8 = levi_bound(8, 2)
    assert b8.half_exponent == 65  # half-integer exponent: exact squared compares
    with pytest.raises(InvalidParameters):
        b8.as_fraction()
    assert b8.lt_value(Fraction(21, 20))
    b11, b13 = levi_bound(11, 2), levi_bound(13, 2)
    assert b8.lt(b7) and b11.lt(b8) and b13.lt(b11)
    assert 1.16 < b7.approx < 1.17
    with pytest.raises(InvalidParameters):
        levi_bound(6, 2)


def test_half_power_bound_exact_comparisons():
    # value 1 + 3/2^(5/2) ~ 1.5303; compare against nearby rationals exactly
    b = HalfPowerBound(coeff=3, t=2, half_exponent=5)
    assert b.lt_value(Fraction(154, 100))
    assert not b.lt_value(Fraction(153, 100))
    other = HalfPowerBound(coeff=17, t=2, half_exponent=10)  # 1 + 17/32
    assert b.lt(other)
    assert not other.lt(b)


def test_lg1_bound():
    b = lg1_bound(9, 4)
    assert b.as_fraction() == 1 + Fraction(362880, 2**35)
    assert b.lt_value(2)
    assert lg1_bound(10, 4).lt(b)
    with pytest.raises(InvalidParameters):
        lg1_bound(8, 4)
    with pytest.raises(InvalidParameters):
        lg1_bound(9, 3)


def test_weak_bound():
    b = weak_bound(3, 6, 4, 1)
    assert b.as_fraction() == 1 + Fraction(24 * 1296, 2**27)
    assert b.lt_value(2)
    assert weak_bound(3, 6, 5, 1).lt(b)
    with pytest.raises(InvalidParameters):
        weak_bound(3, 6, 3, 1)
    with pytest.raises(InvalidParameters):
        weak_bound(2, 6, 4, 1)


def test_max_fixed_ksets_brute_oracle():
    # independent oracle: all 719 nontrivial permutations of [6], counting
    # fixed 2-subsets directly
    best = 0
    best_perms = []
    subsets = list(itertools.combinations(range(6), 2))
    for p in itertools.permutations(range(6)):
        if p == tuple(range(6)):
            continue
        fixed = sum(1 for s in subsets if tuple(sorted(p[x] for x in s)) == s)
        if fixed > best:
            best, best_perms = fixed, [p]
        elif fixed == best:
            best_perms.append(p)
    assert best == 7
    assert all(sorted(sum(1 for i, v in enumerate(p) if i != v) for p in [q])[0] == 2 for q in best_perms)
    value, argmax = max_fixed_ksets(6, 2)
    assert value == best == 7
    assert argmax == (2, 1, 1, 1, 1)


def test_max_fixed_ksets_examples():
    assert max_fixed_ksets(9, 4)[0] == 56
    value, argmax = max_fixed_ksets(4, 1)
    assert value == 2
    assert max_fixed_ksets(20, 5)[0] == 18 * 17 * 16 // 6 + 18 * 17 * 16 * 15 * 14 // 120
    with pytest.raises(InvalidParameters, match="got k=5, n=5"):
        max_fixed_ksets(5, 5)
    with pytest.raises(InvalidParameters, match="got k=0, n=4"):
        max_fixed_ksets(4, 0)


def test_slope_mobius():
    assert slope_mobius(5, (1, 0, 0, 1), 3) == 3
    assert slope_mobius(5, (2, 0, 0, 2), INFINITY) is INFINITY
    assert slope_mobius(5, (0, 1, 1, 0), 2) == 3  # inversion sends 2 to 1/2 = 3 mod 5
    with pytest.raises(InvalidParameters, match="ad - bc must be nonzero"):
        slope_mobius(5, (1, 2, 2, 4), 0)


@pytest.mark.parametrize("q", [5, 7])
def test_slope_mobius_compatible_with_point_action(q):
    rng = random.Random(q)
    for _ in range(1000):
        while True:
            a, b, c, d = (rng.randrange(q) for _ in range(4))
            if (a * d - b * c) % q:
                break
        x = (rng.randrange(q), rng.randrange(q))
        while True:
            y = (rng.randrange(q), rng.randrange(q))
            if y != x:
                break
        fx = ((a * x[0] + b * x[1]) % q, (c * x[0] + d * x[1]) % q)
        fy = ((a * y[0] + b * y[1]) % q, (c * y[0] + d * y[1]) % q)
        lhs = slope_of(q, fx, fy) if fx != fy else None
        if fx == fy:
            continue
        rhs = slope_mobius(q, (a, b, c, d), slope_of(q, x, y))
        assert lhs == rhs or (lhs is INFINITY and rhs is INFINITY)


def _all_subsets_check(q):
    """The former exhaustive mode: every q-subset of the grid, lines included.

    The loop is the library's old one verbatim, plus the ``least`` lines.
    """
    from itertools import combinations

    points = [(x, y) for x in range(q) for y in range(q)]
    inv = [0] * q
    for d in range(1, q):
        inv[d] = pow(d, q - 2, q)
    # slope encoded as 0..q-1, vertical as q
    slope_code = [[0] * q for _ in range(q)]
    for dx in range(q):
        for dy in range(q):
            slope_code[dx][dy] = q if dx == 0 else (dy * inv[dx]) % q
    need = (q + 3) // 2
    lines = 0
    checked = 0
    least = q + 1
    violations = []
    iterator = combinations(points, q)
    for subset in iterator:
        checked += 1
        slopes = set()
        collinear = True
        first_slope = None
        for i in range(q):
            xi, yi = subset[i]
            for j in range(i + 1, q):
                xj, yj = subset[j]
                code = slope_code[(xj - xi) % q][(yj - yi) % q]
                slopes.add(code)
                if first_slope is None:
                    first_slope = code
                elif code != first_slope:
                    collinear = False
        if collinear:
            lines += 1
        elif len(slopes) < need:
            violations.append(subset)
        if not collinear:
            least = min(least, len(slopes))
    return {"checked": checked, "lines_seen": lines, "least_slopes": least, "violations": violations}


def test_lovasz_schrijver_exhaustive_q5():
    oracle = _all_subsets_check(5)
    assert oracle["checked"] == math.comb(25, 5) == 53130
    assert oracle["lines_seen"] == 30  # q(q+1) affine lines
    report = lovasz_schrijver_check(5)
    assert report["violations"] == oracle["violations"] == []
    assert report["checked"] == math.comb(22, 2) == 231
    assert report["least_slopes"] == oracle["least_slopes"] == 4
    assert report["required_slopes"] == 4


def test_lovasz_schrijver_exhaustive_q7():
    report = lovasz_schrijver_check(7)
    assert report["violations"] == []
    assert report["checked"] == math.comb(46, 4) == 163185
    assert report["least_slopes"] == report["required_slopes"] == 5


def test_lovasz_schrijver_order_is_checked():
    for q in (2, 4, 9):
        with pytest.raises(InvalidParameters, match="odd prime"):
            lovasz_schrijver_check(q)
    # at q = 3 the frame is the only subset: directions 0, -1 and vertical
    assert lovasz_schrijver_check(3) == {
        "q": 3, "checked": 1, "least_slopes": 3, "required_slopes": 3, "violations": []
    }


def test_favorable_fraction_exact_small_q5():
    # every slope pair at q=5 produces the same highly symmetric graph,
    # never the baseline order q^2(q-1) = 100
    pairs = list(itertools.combinations(range(5), 2))
    assert len(pairs) == 10
    for pair in pairs:
        assert automorphism_group(slope_graph(5, pair)[0]).order == 28800, pair
    report = favorable_fraction(5, trials=3, seed=0)
    assert report["mode"] == "montecarlo" and report["baseline_order"] == 100
    assert report["fraction_equal"] == 0.0
    assert all(rec["aut_order"] == 28800 for rec in report["samples"])
    assert report["bound_value"] == Fraction(24 * 20 * 2 * partition_count(2), 10)


def test_favorable_fraction_bound_value_q13():
    report = favorable_fraction(13, trials=2, seed=1)
    assert report["bound_value"] == 336
    assert all(rec["aut_order"] % report["baseline_order"] == 0 for rec in report["samples"])
    rerun = favorable_fraction(13, trials=2, seed=1)
    assert rerun["samples"] == report["samples"]


def test_favorable_fraction_counts_a_timeout_and_keeps_trial_order(monkeypatch):
    import distchrom.motion as motion_module
    from distchrom.graphcore import SearchTimeout

    full = favorable_fraction(11, trials=4, seed=3)
    assert full["trials"] == 4 and full["timeouts"] == 0
    search = motion_module.automorphism_group
    calls = []

    def times_out_on_the_second_trial(graph):
        calls.append(graph)
        if len(calls) == 2:
            raise SearchTimeout("planted")
        return search(graph)

    monkeypatch.setattr(motion_module, "automorphism_group", times_out_on_the_second_trial)
    report = favorable_fraction(11, trials=4, seed=3)
    assert len(calls) == 4
    assert report["timeouts"] == 1 and report["trials"] == 3
    assert report["samples"] == [full["samples"][i] for i in (0, 2, 3)]
    equal = sum(rec["baseline"] for rec in report["samples"])
    assert report["fraction_equal"] == equal / 3


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_pgl_fixed_points_at_most_q_plus_2(q):
    # nontrivial projective-linear elements fix at most q+2 points (the
    # semilinear extension can fix more: a subplane)
    n1 = q * q + q + 1
    els = pgl3_action(q).elements()
    worst = 0
    for p in els:
        fixed = sum(1 for v in range(n1) if p[v] == v)
        if fixed < n1:  # skip elements acting trivially on points
            worst = max(worst, fixed)
    assert worst <= q + 2


def test_log_condition_implies_certificate():
    # rotations of a 6-cycle stabilizing one bipartition class {0,2,4}:
    # F = 0, so with t=3 the strict form 3^(3-0) = 27 > 9 = |G|^2 holds,
    # and the exact sum 1 + 2/9 is below the least prime 3.
    rot2 = perm_from_cycles(6, [(0, 2, 4), (1, 3, 5)])
    els = closure([rot2])
    rep = exact_expected_fixers([0, 2, 4], els, 3)
    assert rep.group_order == 3
    assert rep.F_max == 0
    assert rep.log_condition
    assert rep.lemma_satisfied
    assert rep.exact_EN == 1 + Fraction(2, 9)


def _excess_bounded_by_f_form(rep):
    # exact comparison of exact_EN - 1 <= (order-1) * t^((F_max - size)/2),
    # squared to avoid the half-integer exponent
    excess = rep.exact_EN - 1
    lhs = excess**2 * rep.t ** (rep.class_size - rep.F_max)
    return lhs <= (rep.group_order - 1) ** 2


def test_excess_bounded_by_max_fixed_form():
    els = pgl3_action(2).elements()
    rep = exact_expected_fixers(range(7), els, 2)
    assert rep.F_max == 3
    assert _excess_bounded_by_f_form(rep)
    stab = [
        tuple(range(4)),
        perm_from_cycles(4, [(1, 3)]),
        perm_from_cycles(4, [(0, 2), (1, 3)]),
        perm_from_cycles(4, [(0, 2)]),
    ]
    assert _excess_bounded_by_f_form(exact_expected_fixers([0, 2], stab, 2))


def test_package_exposes_motion_module():
    import distchrom

    assert distchrom.motion.exact_expected_fixers is exact_expected_fixers
    from distchrom import motion as motion_module

    assert callable(motion_module.motion)
