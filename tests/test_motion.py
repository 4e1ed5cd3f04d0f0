"""Certificate machinery: exact sums, closed-form bounds, slope action."""

import itertools
import random
from fractions import Fraction

import pytest

from distchrom.algebra import partition_count
from distchrom.coloring import Coloring, is_distinguishing, is_proper
from distchrom.families import INFINITY, slope_graph, slope_of
from distchrom.graphcore import Graph, automorphism_group
from distchrom.motion import (
    HalfPowerBound,
    InvalidParameters,
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
from distchrom.permgroup import closure, perm_from_cycles


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


def test_exact_expected_fixers_threads_match():
    els = dihedral_c4()
    stab = [p for p in els if set(p[v] for v in (0, 2)) == {0, 2}]
    seq = exact_expected_fixers([0, 2], stab, 2, threads=1)
    par = exact_expected_fixers([0, 2], stab, 2, threads=2)
    # small list bypasses the pool, so force chunking through a bigger group
    from distchrom.permgroup import induced_action_on_ksets

    spec = induced_action_on_ksets(7, 2)
    els7 = spec.elements()
    a = exact_expected_fixers(range(21), els7, 2, threads=1)
    b = exact_expected_fixers(range(21), els7, 2, threads=3)
    assert seq.exact_EN == par.exact_EN
    assert a.exact_EN == b.exact_EN and a.theta_histogram == b.theta_histogram


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


def test_lovasz_schrijver_exhaustive_q5():
    report = lovasz_schrijver_check(5, mode="exhaustive")
    assert report["checked"] == 53130
    assert report["lines_seen"] == 30
    assert report["violations"] == []


def test_lovasz_schrijver_sampled_q7():
    report = lovasz_schrijver_check(7, mode="sampled", trials=10**6, seed=0)
    assert report["checked"] == 10**6
    assert report["violations"] == []


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


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_pgl_fixed_points_at_most_q_plus_2(q):
    # nontrivial projective-linear elements fix at most q+2 points (the
    # semilinear extension can fix more: a subplane)
    from distchrom.families import pgl3_action

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
    from distchrom.families import pgl3_action

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
