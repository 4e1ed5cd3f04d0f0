"""Permutation machinery: closure, orders, orbit counts, named actions."""

import math
import random
import sys
import tracemalloc
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from distchrom import permgroup
from distchrom.algebra import InvalidParameters
from distchrom.families import pgammal3_action, pgl3_action
from distchrom.permgroup import (
    GroupSpec,
    TooLarge,
    _chain_of,
    closure,
    compose,
    group_order,
    identity,
    induced_action_on_ksets,
    inverse,
    orbit_count_on,
    perm_from_cycles,
    wreath_action,
)


def s_n_gens(n):
    return [perm_from_cycles(n, [(0, 1)]), perm_from_cycles(n, [tuple(range(n))])]


def test_closure_small():
    els = closure([perm_from_cycles(2, [(0, 1)])])
    assert len(els) == 2
    assert tuple(els[0]) == (0, 1)  # identity first
    assert len(closure(s_n_gens(4))) == 24


def test_closure_contains_identity_and_is_closed():
    gens = s_n_gens(4)
    els = closure(gens)
    els_set = set(els)
    assert bytes(range(4)) in els_set
    rng = random.Random(0)
    for _ in range(100):
        a, b = rng.choice(els), rng.choice(els)
        assert bytes(compose(a, b)) in els_set
        assert bytes(inverse(a)) in els_set


def test_closure_cap():
    # |S11| = 39916800 exceeds the enumeration limit.  ``closure`` builds the
    # chain, which knows the order, so a pass over the whole group is refused
    # before it builds any element; the weighted sum, which reads far fewer,
    # still runs, and single elements can still be indexed.
    tracemalloc.start()
    try:
        els = closure(s_n_gens(11))
        with pytest.raises(TooLarge):
            iter(els)
        with pytest.raises(TooLarge):
            list(els)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert len(els) == 39916800
    assert sorted(els[-1]) == list(range(11))
    assert sum(w for _, w in els.pair_orbit_weighted()) == len(els)


def test_weighted_sum_cap(monkeypatch):
    # The weighted sum checks its running count before it builds a block, so
    # it never yields more elements than the cap allows.
    els = closure(pgl3_action(3).generators)
    total = sum(1 for _ in els.pair_orbit_weighted())
    for cap in (0, total // 2, total - 2):
        monkeypatch.setattr(permgroup, "MAX_ELEMENTS", cap)
        yielded = []
        with pytest.raises(TooLarge):
            for pair in els.pair_orbit_weighted():
                yielded.append(pair)
        assert len(yielded) <= cap
    monkeypatch.setattr(permgroup, "MAX_ELEMENTS", total)
    assert sum(w for _, w in els.pair_orbit_weighted()) == len(els)


def test_closure_result_is_not_kept_alive():
    # Nothing but the caller may hold the list: a hidden reference (say, a
    # reference cycle through a nested helper) keeps every element in memory
    # until the cyclic collector runs.
    els = closure(s_n_gens(5))
    assert sys.getrefcount(els) == 2  # the name above and the call's argument


def test_closure_tuple_path_dihedral_300():
    n = 300
    rotation = tuple((i + 1) % n for i in range(n))
    reflection = tuple(-i % n for i in range(n))
    els = closure([rotation, reflection])
    assert all(type(e) is tuple for e in els)
    assert els[0] == identity(n)
    els_set = set(els)
    assert len(els) == len(els_set) == 2 * n
    for e in els:
        for g in (rotation, reflection):
            assert compose(e, g) in els_set


@pytest.mark.parametrize(
    "gens",
    [s_n_gens(5), induced_action_on_ksets(6, 2).generators, pgl3_action(2).generators],
    ids=["S5", "S6-on-2-sets", "PGL(3,2)"],
)
def test_closure_matches_sympy(gens):
    from sympy.combinatorics import Permutation, PermutationGroup

    group = PermutationGroup([Permutation(list(g)) for g in gens])
    expected = {tuple(p.array_form) for p in group.generate()}
    els = closure(gens)
    assert len(els) == len(expected)
    assert {tuple(e) for e in els} == expected


def _eager_elements(chain):
    # The list builder that ``closure`` used before it streamed its elements
    # (``_Chain.elements`` and ``_Chain._products``), kept verbatim but for
    # ``self`` becoming ``chain`` and ``_trim`` written out, as the order oracle.
    def trim(e):
        if chain._bytes:
            return e[: chain.degree]
        return e

    levels = [list(trans.values()) for trans in chain.trans]
    out = []
    if levels:
        _eager_products(chain, trim, levels, len(levels) - 1, chain._id, out)
    else:
        out.append(trim(chain._id))
    return out


def _eager_products(chain, trim, levels, lvl, prefix, out):
    if lvl == 0:
        head = trim(prefix)
        if chain._bytes:
            out.extend(map(head.translate, levels[0]))
        else:
            out.extend([compose(head, u) for u in levels[0]])
        return
    for u in levels[lvl]:
        _eager_products(chain, trim, levels, lvl - 1, chain._mul(prefix, u), out)


def dihedral_300():
    n = 300
    return [tuple((i + 1) % n for i in range(n)), tuple(-i % n for i in range(n))]


@pytest.mark.parametrize(
    "gens",
    [s_n_gens(5), induced_action_on_ksets(6, 2).generators, pgl3_action(2).generators, dihedral_300()],
    ids=["S5", "S6-on-2-sets", "PGL(3,2)", "D300"],
)
def test_closure_streams_the_eager_list_in_order(gens):
    els = closure(gens)
    expected = _eager_elements(_chain_of(gens))
    assert len(els) == len(expected)
    assert list(els) == expected
    assert {type(e) for e in els} == {bytes if len(gens[0]) <= 256 else tuple}


@pytest.mark.parametrize(
    "gens",
    [s_n_gens(5), pgl3_action(2).generators, dihedral_300(), [identity(4)]],
    ids=["S5", "PGL(3,2)", "D300", "trivial"],
)
def test_closure_indexing_matches_iteration(gens):
    els = closure(gens)
    first = list(els)
    assert list(els) == first  # a second pass builds the same elements
    n = len(els)
    assert n == len(first) == group_order(gens)
    for i in range(n):
        assert els[i] == first[i]
        assert els[-1 - i] == first[-1 - i]
    for bad in (n, -n - 1):
        with pytest.raises(IndexError):
            els[bad]


def _cycle_type(p):
    seen, lengths = set(), []
    for v in range(len(p)):
        length = 0
        while v not in seen:
            seen.add(v)
            v = p[v]
            length += 1
        if length:
            lengths.append(length)
    return tuple(sorted(lengths))


def regular_s4():
    # S4 acting on its own elements by right multiplication: every point
    # stabilizer is trivial, so each point is a suborbit of its own.
    els = [tuple(e) for e in closure(s_n_gens(4))]
    where = {e: i for i, e in enumerate(els)}
    return [tuple(where[compose(e, g)] for e in els) for g in s_n_gens(4)]


def s5_with_fixed_points():
    # S5 with 300 fixed points appended: degree 305 takes the tuple path.
    return [g + tuple(range(5, 305)) for g in s_n_gens(5)]


SUBORBIT_GROUPS = {
    "S5": (s_n_gens(5), 16),
    "PGL(3,2)": (pgl3_action(2).generators, 24),
    "S7-on-3-sets": (induced_action_on_ksets(7, 3).generators, 126),
    "D300": (dihedral_300(), 302),
    "regular-S4": (regular_s4(), 24),
    "trivial": ([identity(4)], 1),
    "S5-plus-300-fixed": (s5_with_fixed_points(), 16),
}


def _check_weighted_sum(gens):
    # Conjugation keeps an element's cycle type, so the weighted pairs must
    # count every cycle type as often as a full pass does.  Every pair holds
    # an element of the group, the weights sum to the order, and the
    # identity comes once, with weight 1.
    els = closure(gens)
    pairs = list(els.pair_orbit_weighted())
    assert sum(w for _, w in pairs) == len(els)
    members = set(els)
    assert all(p in members for p, _ in pairs)
    ident = identity(len(gens[0]))
    assert [w for p, w in pairs if tuple(p) == ident] == [1]
    weighted = Counter()
    for p, w in pairs:
        weighted[_cycle_type(p)] += w
    assert weighted == Counter(map(_cycle_type, els))
    return pairs


@pytest.mark.parametrize("name", list(SUBORBIT_GROUPS))
def test_suborbit_weighted_keeps_the_cycle_types(name):
    # The count is, level by level, the number of elements in the pieces
    # each block H * t_x is refined into (one coset per orbit of the fixing
    # strong generators, node by node), plus the identity.
    gens, evaluated = SUBORBIT_GROUPS[name]
    assert len(_check_weighted_sum(gens)) == evaluated


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8).flatmap(lambda n: st.lists(st.permutations(range(n)), min_size=1, max_size=3)))
def test_weighted_sum_on_random_groups(gens):
    _check_weighted_sum([tuple(g) for g in gens])


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.lists(st.permutations(range(n)), min_size=1, max_size=3)))
def test_weighted_sum_on_padded_random_groups(gens):
    # The same groups with fixed points up to degree 260 take the tuple path.
    padded = [tuple(g) + tuple(range(len(g), 260)) for g in gens]
    assert not _chain_of(padded)._bytes
    _check_weighted_sum(padded)


@pytest.mark.parametrize("name", list(SUBORBIT_GROUPS))
def test_rebased_chains_are_complete(name):
    # At every level, each H-orbit x^H other than {b} of more than one point
    # gets H's chain with x first: its strong generators below level 0 fix
    # x, its order is |H|, and its elements are exactly H's.
    els = closure(SUBORBIT_GROUPS[name][0])
    for lvl, b in enumerate(els._base):
        stab_gens = [g for g, at in els._gens if at > lvl]
        h = set(permgroup._products(els._levels[lvl + 1 :], els._id, els._mul, els._degree))
        for x, size in permgroup._orbits(els._trans[lvl], stab_gens):
            if x == b or size == 1:
                continue
            sub = els._rebased(lvl, x)
            assert sub.base[0] == x
            assert sub.order() == len(h)
            assert all(g[x] == x for g, at in sub.gens if at >= 1)
            assert set(permgroup._Elements(sub)) == h


@st.composite
def generator_lists(draw):
    # Random generators of degree <= 9 with, in any order, some of: a
    # duplicate, the identity, and a product of two of them.
    n = draw(st.integers(1, 9))
    gens = [tuple(p) for p in draw(st.lists(st.permutations(range(n)), min_size=1, max_size=3))]
    extras = [gens[0], identity(n), compose(gens[0], gens[-1])]
    picked = draw(st.lists(st.sampled_from(extras), max_size=3, unique=True))
    return draw(st.permutations(gens + picked))


@settings(max_examples=100, deadline=None)
@given(generator_lists())
def test_group_order_matches_sympy(gens):
    from sympy.combinatorics import Permutation, PermutationGroup

    expected = PermutationGroup([Permutation(list(g)) for g in gens]).order()
    assert group_order(gens) == expected
    # the same group with fixed points past degree 256 takes the tuple path
    padded = [g + tuple(range(len(g), 260)) for g in gens]
    assert not _chain_of(padded)._bytes
    assert group_order(padded) == expected


def _check_chain(chain):
    # At every level, t_y sends the base point to y and inv[y] is its
    # inverse, and the orbit is the one a plain search finds under the
    # level's strong generators.
    for lvl, b in enumerate(chain.base):
        trans, inv = chain.trans[lvl], chain.inv[lvl]
        assert trans.keys() == inv.keys()
        for y, t in trans.items():
            assert t[b] == y
            assert chain._mul(t, inv[y]) == chain._id == chain._mul(inv[y], t)
        gens = [g for g, at in chain.gens if at >= lvl]
        orbit = [b]
        for x in orbit:
            orbit.extend(y for y in {g[x] for g in gens} if y not in orbit)
        assert set(trans) == set(orbit)


@settings(max_examples=100, deadline=None)
@given(generator_lists())
# (2 3) adds point 3 to the orbit {0, 2} of (0 2)(3 4), which must then
# walk 3 on to 4.
@example([(2, 1, 0, 4, 3), (0, 1, 3, 2, 4)])
def test_chain_levels_hold_their_invariants(gens):
    _check_chain(_chain_of(gens))
    padded = [g + tuple(range(len(g), 260)) for g in gens]
    _check_chain(_chain_of(padded))


@pytest.mark.parametrize("name", list(SUBORBIT_GROUPS))
def test_rebased_chains_hold_their_invariants(name):
    els = closure(SUBORBIT_GROUPS[name][0])
    for lvl, b in enumerate(els._base):
        stab_gens = [g for g, at in els._gens if at > lvl]
        for x, size in permgroup._orbits(els._trans[lvl], stab_gens):
            if x != b and size > 1:
                _check_chain(els._rebased(lvl, x))


@pytest.mark.parametrize(
    "spec,evaluated",
    [
        (lambda: pgl3_action(5), 644),
        (lambda: pgammal3_action(4), 458),
        (lambda: induced_action_on_ksets(9, 4), 940),
    ],
    ids=["PGL(3,5)", "PGammaL(3,4)", "S9-on-4-sets"],
)
def test_suborbit_weighted_counts(spec, evaluated):
    els = closure(spec().generators)
    weights = [w for _, w in els.pair_orbit_weighted()]
    assert len(weights) == evaluated
    assert sum(weights) == len(els)


def test_closure_size_divides_supergroup():
    sub = closure([perm_from_cycles(4, [(0, 1)]), perm_from_cycles(4, [(2, 3)])])
    sup = closure(s_n_gens(4))
    assert len(sup) % len(sub) == 0


def test_group_order_chain_vs_closure():
    for gens in (s_n_gens(4), s_n_gens(6), [perm_from_cycles(5, [(0, 1, 2, 3, 4)])]):
        assert group_order(gens) == len(closure(gens))


def test_group_order_examples():
    ks = induced_action_on_ksets(6, 2)
    assert ks.degree == 15
    assert group_order(ks.generators) == 720
    assert len(ks.elements()) == 720
    assert group_order([identity(5)]) == 1


def test_group_order_large_without_enumeration():
    # wreath of pair swaps with coordinate permutations: 2^10 * 10!
    g1 = perm_from_cycles(20, [(0, 1)])
    g2 = perm_from_cycles(20, [(0, 2), (1, 3)])
    g3 = perm_from_cycles(20, [tuple(2 * i for i in range(10)), tuple(2 * i + 1 for i in range(10))])
    assert group_order([g1, g2, g3]) == 2**10 * math.factorial(10)


def test_orbit_count_on_examples():
    ident = identity(40)
    theta, fixed = orbit_count_on(ident, range(31))
    assert (theta, fixed) == (31, 31)
    swap = perm_from_cycles(10, [(0, 1)])
    theta, fixed = orbit_count_on(swap, [0, 1, 2, 3, 4])
    assert (theta, fixed) == (4, 3)
    seven_cycle = perm_from_cycles(7, [tuple(range(7))])
    assert orbit_count_on(seven_cycle, range(7)) == (1, 0)


def test_orbit_count_not_setwise_stable():
    swap = perm_from_cycles(10, [(0, 5)])
    with pytest.raises(InvalidParameters, match="maps outside the subset"):
        orbit_count_on(swap, [0, 1, 2])


@given(st.integers(0, 999))
def test_orbit_count_properties(seed):
    rng = random.Random(seed)
    n = rng.randrange(2, 12)
    images = list(range(n))
    rng.shuffle(images)
    perm = tuple(images)
    # a union of cycles of the permutation is always setwise stable
    cycles = []
    seen = set()
    for v in range(n):
        if v in seen:
            continue
        cyc = [v]
        w = perm[v]
        while w != v:
            cyc.append(w)
            w = perm[w]
        seen.update(cyc)
        cycles.append(cyc)
    chosen = [c for c in cycles if rng.random() < 0.6] or cycles[:1]
    subset = [v for c in chosen for v in c]
    theta, fixed = orbit_count_on(perm, subset)
    assert theta == len(chosen)
    assert fixed == sum(1 for c in chosen if len(c) == 1)
    assert fixed <= len(subset)
    assert 2 * theta <= fixed + len(subset)


def test_induced_action_on_ksets():
    spec = induced_action_on_ksets(4, 2)
    assert spec.degree == 6
    assert spec.order() == 24
    tiny = induced_action_on_ksets(2, 1)
    assert tiny.degree == 2
    assert tiny.order() == 2
    with pytest.raises(InvalidParameters, match="need 1 <= k < n"):
        induced_action_on_ksets(3, 3)


def test_wreath_action_orders():
    s3 = GroupSpec(degree=3, generators=s_n_gens(3))
    w = wreath_action(s3, 4)
    assert w.degree == 81
    assert w.order() == 6**4 * 24 == 31104
    s2 = GroupSpec(degree=2, generators=[perm_from_cycles(2, [(0, 1)])])
    assert wreath_action(s2, 2).order() == 8
    trivial = GroupSpec(degree=2, generators=[identity(2)])
    assert wreath_action(trivial, 2).order() == 2
    with pytest.raises(InvalidParameters, match="need base degree >= 2 and n >= 2"):
        wreath_action(GroupSpec(degree=1, generators=[identity(1)]), 2)


@pytest.mark.parametrize("m,n", [(2, 3), (3, 2), (3, 3)])
def test_wreath_order_formula(m, n):
    base = GroupSpec(degree=m, generators=s_n_gens(m) if m > 2 else [perm_from_cycles(2, [(0, 1)])])
    w = wreath_action(base, n)
    assert w.order() == base.order() ** n * math.factorial(n)
