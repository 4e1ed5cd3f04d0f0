"""Coloring verification, exact chromatic searches, and the explicit colorings."""

import hashlib
import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st
from networkx.algorithms.isomorphism import GraphMatcher

from distchrom import coloring, graphcore
from distchrom.coloring import (
    Coloring,
    Infeasible,
    InvalidParameters,
    chromatic_number,
    distinguishing_chromatic_number,
    enumerate_proper_colorings,
    gs_plus_one_coloring,
    is_distinguishing,
    is_proper,
    krs_plus_one_coloring,
    lg1_explicit_coloring,
    random_proper_coloring,
    split_color_class,
)
from distchrom.families import (
    kneser_complement,
    levi_graph,
    levi_order1,
    levi_tensor_krs,
    slope_graph,
    weak_power,
)
from distchrom.graphcore import Graph, color_preserving_automorphisms, is_automorphism
from distchrom.recipes import DEFAULT_SEED
from distchrom.seeds import derive_seed


def complete_graph(n):
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def cycle(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def test_coloring_type():
    c = Coloring.from_sequence([3, 1, 3])
    assert c.colors == (2, 1, 2) and c.k == 2
    with pytest.raises(ValueError):
        Coloring(colors=(1, 3), k=3)
    classes = c.classes()
    assert classes == [[1], [0, 2]]
    text = c.to_text()
    assert Coloring.from_text(text).colors == c.colors


@pytest.mark.parametrize("budget", [0, -5])
def test_chid_rejects_a_budget_below_one(budget):
    with pytest.raises(InvalidParameters, match="budget must be at least 1"):
        distinguishing_chromatic_number(cycle(4), budget=budget)


def test_text_parse_errors_name_the_line():
    # blank and comment lines count, so the number is the line in the file
    with pytest.raises(ValueError, match=r"^line 3: expected a vertex and its color 'v c', got '1'$"):
        Coloring.from_text("# colors\n0 1\n1\n")
    with pytest.raises(ValueError, match=r"^line 3: expected a vertex and its color 'v c', got '1 2 3'$"):
        Coloring.from_text("0 1\n\n1 2 3\n")


def test_is_proper():
    lg5 = levi_graph(5)
    sides = Coloring.from_sequence([1] * 31 + [2] * 31)
    assert is_proper(lg5, sides)
    k3 = complete_graph(3)
    assert not is_proper(k3, Coloring.from_sequence([1, 1, 2]))
    assert is_proper(k3, Coloring.from_sequence([1, 2, 3]))


def test_is_distinguishing_examples():
    lg2 = levi_graph(2)
    sides = Coloring.from_sequence([1] * 7 + [2] * 7)
    ok, witness = is_distinguishing(lg2, sides)
    assert not ok
    assert witness is not None and is_automorphism(lg2, witness)
    assert all(witness[v] < 7 for v in range(7))  # witness preserves the sides
    distinct = Coloring.from_sequence(list(range(1, 15)))
    assert is_distinguishing(lg2, distinct) == (True, None)


def test_is_distinguishing_matches_subgroup_order():
    g = kneser_complement(6, 3)
    rng = random.Random(5)
    for _ in range(5):
        c = Coloring.from_sequence([rng.randrange(1, 5) for _ in range(g.n)])
        ok, _ = is_distinguishing(g, c)
        assert ok == (color_preserving_automorphisms(g, c).order == 1)


@st.composite
def colored_graphs(draw):
    n = draw(st.integers(1, 9))
    pairs = list(itertools.combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    g = Graph.from_edges(n, [e for e, k in zip(pairs, keep) if k])
    colors = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    return g, Coloring.from_sequence(colors)


def nx_class_preserving_trivial(g, c):
    h = nx.Graph()
    h.add_nodes_from((v, {"color": c.colors[v]}) for v in range(g.n))
    h.add_edges_from(g.edges())
    matcher = GraphMatcher(h, h, node_match=lambda a, b: a["color"] == b["color"])
    return len(list(itertools.islice(matcher.isomorphisms_iter(), 2))) == 1


@settings(max_examples=200, deadline=None)
@given(colored_graphs())
def test_is_distinguishing_matches_networkx_and_full_search(gc):
    g, c = gc
    ok, witness = is_distinguishing(g, c)
    assert ok == nx_class_preserving_trivial(g, c)
    if ok:
        assert witness is None
    else:
        assert witness == color_preserving_automorphisms(g, c).generators[0]


def test_slope_sweep_witnesses_match_full_search():
    g, _ = slope_graph(5, [1, 2])
    proved = refuted = 0
    for c in enumerate_proper_colorings(g, 5):
        ok, witness = is_distinguishing(g, c)
        full = color_preserving_automorphisms(g, c)
        assert ok == (full.order == 1)
        if ok:
            proved += 1
            assert witness is None
        else:
            refuted += 1
            assert witness == full.generators[0]
    assert (proved, refuted) == (1200, 144)


def test_decision_spends_a_fraction_of_the_full_search(monkeypatch):
    budgets = []

    class CountingBudget(graphcore._Budget):
        def __init__(self, steps, secs=None):
            super().__init__(steps, secs)
            self.start = steps
            budgets.append(self)

    monkeypatch.setattr(graphcore, "_Budget", CountingBudget)
    g, _ = levi_tensor_krs(5, 2, 2)
    c = random_proper_coloring(g, 4, seed=derive_seed(DEFAULT_SEED, "krs4", 0))
    ok, witness = is_distinguishing(g, c)
    full = color_preserving_automorphisms(g, c)
    decide, whole = (b.start - b.remaining for b in budgets)
    assert not ok and witness == full.generators[0]
    assert 5 * decide < whole


@pytest.mark.parametrize("bad", ["identity", "non-automorphism", "mixes-classes"])
def test_is_distinguishing_rejects_a_bad_witness(monkeypatch, bad):
    # the 6-cycle colored 1,2,1,2,1,2: swapping 0 and 2 keeps the classes but
    # breaks the edge 0-5, and the rotation by one step swaps the colors
    g = cycle(6)
    c = Coloring.from_sequence([1, 2, 1, 2, 1, 2])
    fake = {"identity": (0, 1, 2, 3, 4, 5), "non-automorphism": (2, 1, 0, 3, 4, 5),
            "mixes-classes": (1, 2, 3, 4, 5, 0)}[bad]
    assert not is_distinguishing(g, c)[0]
    monkeypatch.setattr(coloring, "_first_automorphism", lambda *_: fake)
    with pytest.raises(RuntimeError):
        is_distinguishing(g, c)


def test_witness_checks_survive_optimize():
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "from distchrom import coloring\n"
        "from distchrom.graphcore import Graph\n"
        "g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])\n"
        "c = coloring.Coloring.from_sequence([1, 2, 2, 1])\n"
        "coloring._first_automorphism = lambda *_: (0, 1, 2, 3)\n"
        "try:\n"
        "    coloring.is_distinguishing(g, c)\n"
        "except RuntimeError:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit(1)\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", code], env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0


def test_chromatic_numbers():
    assert chromatic_number(complete_graph(5)) == 5
    assert chromatic_number(levi_graph(3)) == 2
    assert chromatic_number(Graph.from_edges(3, [])) == 1
    g, _ = slope_graph(5, [1, 2])
    assert chromatic_number(g) == 5
    assert chromatic_number(weak_power(complete_graph(3), 4)) == 3
    assert chromatic_number(kneser_complement(6, 3)) == 10
    assert chromatic_number(kneser_complement(7, 3)) == 18


def test_enumerate_counts():
    k3 = complete_graph(3)
    assert len(list(enumerate_proper_colorings(k3, 3))) == 1
    p3 = Graph.from_edges(3, [(0, 1), (1, 2)])
    assert len(list(enumerate_proper_colorings(p3, 2))) == 1


def _first_occurrence(assignment) -> tuple[int, ...]:
    # Renumber colors in order of first appearance.  Coloring.from_sequence
    # renumbers by sorted value instead, which is not a canonical form here.
    rank: dict[int, int] = {}
    return tuple(rank.setdefault(c, len(rank) + 1) for c in assignment)


def test_enumerate_matches_brute_force():
    two_paths = Graph.from_edges(5, [(0, 1), (1, 2), (3, 4)])
    for g, k in ((cycle(5), 3), (cycle(6), 3), (complete_graph(3), 3), (two_paths, 2), (two_paths, 3)):
        colorings = set()
        for assignment in itertools.product(range(1, k + 1), repeat=g.n):
            if all(assignment[u] != assignment[v] for u, v in g.edges()):
                if set(assignment) == set(range(1, k + 1)):
                    colorings.add(_first_occurrence(assignment))
        got = [c.colors for c in enumerate_proper_colorings(g, k)]
        assert len(got) == len(set(got)), (g, k)
        assert set(got) == colorings, (g, k)


def _reference_colorings(g, k):
    # The plain search the forward-checking enumerator replaced: each vertex,
    # in order 0..n-1, is checked against its earlier neighbours only.
    n = g.n
    adj = g.adj
    colors = [0] * n

    def rec(v, used):
        if v == n:
            if used == k:
                yield tuple(colors)
            return
        forbidden = 0
        w = adj[v] & ((1 << v) - 1)
        while w:
            u = (w & -w).bit_length() - 1
            forbidden |= 1 << colors[u]
            w &= w - 1
        for c in range(1, min(k, used + 1) + 1):
            if (forbidden >> c) & 1:
                continue
            new_used = max(used, c)
            if k - new_used > n - v - 1:
                continue
            colors[v] = c
            yield from rec(v + 1, new_used)
            colors[v] = 0

    return list(rec(0, 0))


@st.composite
def graphs(draw, max_n):
    n = draw(st.integers(0, max_n))
    pairs = list(itertools.combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph.from_edges(n, [e for e, k in zip(pairs, keep) if k])


@settings(max_examples=150, deadline=None)
@given(graphs(10), st.integers(0, 5))
def test_enumerate_matches_the_reference_search_in_order(g, k):
    assert [c.colors for c in enumerate_proper_colorings(g, k)] == _reference_colorings(g, k)


def test_negative_color_counts_are_refused():
    g = cycle(5)
    with pytest.raises(InvalidParameters, match="need k >= 0"):
        enumerate_proper_colorings(g, -1)
    with pytest.raises(InvalidParameters, match="need k >= 0"):
        random_proper_coloring(g, -1, seed=0)
    empty = Graph.from_edges(0, [])
    assert [c.colors for c in enumerate_proper_colorings(empty, 0)] == [()]
    assert random_proper_coloring(empty, 0, seed=0).colors == ()
    assert list(enumerate_proper_colorings(g, 0)) == []
    with pytest.raises(Infeasible):
        random_proper_coloring(Graph.from_edges(1, []), 0, seed=0)


def test_slope_graph_five_classes_have_size_five():
    # the slope classes partition the grid into 5-cliques, so every proper
    # 5-coloring must meet each clique once: all classes have size exactly 5
    g, _ = slope_graph(5, [1, 2])
    count = 0
    for c in enumerate_proper_colorings(g, 5):
        assert all(len(cls) == 5 for cls in c.classes())
        count += 1
    assert count == 1344


def test_chid_levi2():
    result = distinguishing_chromatic_number(levi_graph(2))
    assert result.value == 4
    assert result.lower_bound_certificates[3]["count"] == 350


def test_chid_small():
    k22 = Graph.from_edges(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
    result = distinguishing_chromatic_number(k22)
    assert result.value == 4
    assert is_proper(k22, result.witness) and is_distinguishing(k22, result.witness)[0]
    assert set(result.lower_bound_certificates) == {2, 3}
    assert all(cert["mode"] == "exhaustive" for cert in result.lower_bound_certificates.values())


def test_chid_cycle6_with_brute_oracle():
    c6 = cycle(6)
    result = distinguishing_chromatic_number(c6)
    assert result.value == 4
    # oracle: the 12-element dihedral group, checked directly on every proper
    # 2- and 3-coloring
    dihedral = []
    for p in itertools.permutations(range(6)):
        if is_automorphism(c6, p):
            dihedral.append(p)
    assert len(dihedral) == 12
    for k in (2, 3):
        for c in enumerate_proper_colorings(c6, k):
            fixing = [
                p
                for p in dihedral
                if any(i != v for i, v in enumerate(p))
                and all(c.colors[p[v]] == c.colors[v] for v in range(6))
            ]
            assert fixing, (k, c.colors)


def test_chid_at_least_chi():
    rng = random.Random(2)
    for _ in range(5):
        n = rng.randrange(3, 7)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]
        g = Graph.from_edges(n, edges)
        result = distinguishing_chromatic_number(g)
        assert result.value is not None
        assert result.value >= chromatic_number(g)


def test_random_proper_coloring():
    k3 = complete_graph(3)
    seen = set()
    for seed in range(200):
        c = random_proper_coloring(k3, 3, seed=seed)
        assert is_proper(k3, c)
        seen.add(c.colors)
    assert seen == set(itertools.permutations((1, 2, 3)))
    assert random_proper_coloring(k3, 3, seed=9).colors == random_proper_coloring(k3, 3, seed=9).colors
    with pytest.raises(Infeasible):
        random_proper_coloring(k3, 2, seed=0)
    kc = kneser_complement(7, 3)
    c = random_proper_coloring(kc, 18, seed=1)
    assert is_proper(kc, c)


def _reference_sampler(g, k, seed):
    # The sampler before the per-color class masks: one forbidden-color mask
    # per vertex.  Only called with k above the maximum degree, where the
    # first greedy pass never dead-ends.
    rng = random.Random(seed)
    order = list(range(g.n))
    rng.shuffle(order)
    colors = [0] * g.n
    forbidden = [0] * g.n
    full = ((1 << k) - 1) << 1
    for v in order:
        m = full & ~forbidden[v]
        feasible = [c for c in range(1, k + 1) if (m >> c) & 1]
        c = rng.choice(feasible)
        colors[v] = c
        for u in g.neighbors(v):
            forbidden[u] |= 1 << c
    return Coloring.from_sequence(colors).colors


@settings(max_examples=150, deadline=None)
@given(graphs(12), st.integers(1, 3), st.integers(0, 2**64 - 1))
def test_sampler_draws_match_the_reference(g, extra, seed):
    k = max((g.degree(v) for v in range(g.n)), default=0) + extra
    assert random_proper_coloring(g, k, seed).colors == _reference_sampler(g, k, seed)


def _restarting_reference_sampler(g, k, seed):
    # The sampler before the packed blocked-color word, kept verbatim with its
    # restarts: one vertex mask per color, and the ascending colors whose
    # class has no neighbour of v.
    if k < 0:
        raise InvalidParameters("need k >= 0")
    rng = random.Random(seed)
    n = g.n
    adj = g.adj
    ids = range(1, k + 1)
    for _ in range(coloring.MAX_ATTEMPTS):
        order = list(range(n))
        rng.shuffle(order)
        colors = [0] * n
        members = [0] * (k + 1)  # members[c]: mask of the vertices colored c
        for v in order:
            a = adj[v]
            feasible = [c for c in ids if not members[c] & a]
            if not feasible:
                break
            c = rng.choice(feasible)
            colors[v] = c
            members[c] |= 1 << v
        else:
            return Coloring.from_sequence(colors)
    raise Infeasible(f"no proper {k}-coloring found in {coloring.MAX_ATTEMPTS} attempts")


def _draw_or_infeasible(sampler, g, k, seed):
    try:
        return sampler(g, k, seed).colors
    except Infeasible:
        return Infeasible


@settings(max_examples=300, deadline=None)
@given(graphs(14), st.data(), st.integers(0, 2**64 - 1), st.booleans())
def test_sampler_matches_the_restarting_reference(g, data, seed, spread_each_use):
    # k runs from 0 to the maximum degree + 2, so draws restart and dead-end,
    # and often sits at chi or chi + 1, where a draw succeeds after restarts;
    # 9, 16 and 17 cross the 8-color chunks of the blocked-color tables.  A
    # zero word budget makes the sampler spread each neighbour word on use.
    top = max((g.degree(v) for v in range(g.n)), default=0) + 2
    chi = chromatic_number(g)
    k = data.draw(st.one_of(st.integers(0, top), st.integers(chi, chi + 1), st.sampled_from([9, 16, 17])))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(coloring, "MAX_ATTEMPTS", 5)
        if spread_each_use:
            mp.setattr(coloring, "_WORD_BYTES", 0)
        expected = _draw_or_infeasible(_restarting_reference_sampler, g, k, seed)
        assert _draw_or_infeasible(random_proper_coloring, g, k, seed) == expected


def test_sampler_matches_the_restarting_reference_on_restart_heavy_draws():
    # kneser_complement(7,3) at k = 18 restarts about 114 times a draw, so each
    # draw replays thousands of shuffle and choice draws; the reference calls
    # rng.shuffle and rng.choice themselves.
    kc = kneser_complement(7, 3)
    krs, _ = levi_tensor_krs(5, 2, 2)
    cases = [(kc, 18, derive_seed(DEFAULT_SEED, "kneser18-reference", i)) for i in range(20)]
    cases += [(krs, 4, derive_seed(DEFAULT_SEED, "krs4-reference", i)) for i in range(5)]
    for g, k, seed in cases:
        assert random_proper_coloring(g, k, seed) == _restarting_reference_sampler(g, k, seed)


# sha256 of repr() of the drawn color tuples, recorded before the sampler kept
# one vertex mask per color; every seed must still draw the same coloring
SAMPLER_DIGEST = "f600e77ebb2fa6d5f5c65fb9cfbb341a739ae17a8b1c4bb47ff991a8a4cfb0b9"


def test_sampler_draws_are_pinned():
    kc = kneser_complement(7, 3)
    krs, _ = levi_tensor_krs(5, 2, 2)
    draws = [random_proper_coloring(kc, 18, seed=s).colors for s in range(50)]
    draws += [random_proper_coloring(krs, 4, seed=derive_seed(DEFAULT_SEED, "krs4", i)).colors for i in range(5)]
    draws += [random_proper_coloring(cycle(5), 3, seed=s).colors for s in range(50)]
    assert hashlib.sha256(repr(draws).encode()).hexdigest() == SAMPLER_DIGEST


# sha256 of repr() of draws whose k crosses the 8-color chunks of the
# blocked-color tables (2, 8, 9, 16, 17, 25 on levi_graph(3); 10, 16, 17, 25 on
# kneser_complement(6,3)), recorded before the sampler kept a packed word
CHUNK_BOUNDARY_DIGEST = "21c5b1c999ceb556dbb1a0071e534307e29d445ebd604fec2d1f88f553077f63"


def test_sampler_draws_across_chunk_boundaries_are_pinned():
    lg, kc = levi_graph(3), kneser_complement(6, 3)
    draws = [random_proper_coloring(lg, k, seed=s).colors for k in (2, 8, 9, 16, 17, 25) for s in range(10)]
    draws += [random_proper_coloring(kc, k, seed=s).colors for k in (10, 16, 17, 25) for s in range(10)]
    assert hashlib.sha256(repr(draws).encode()).hexdigest() == CHUNK_BOUNDARY_DIGEST


def test_split_color_class():
    base = Coloring.from_sequence([1] * 31 + [2] * 31)
    out = split_color_class(base, 1, 2, seed=4)
    assert out.k in (2, 3)
    assert out.colors[31:] != out.colors[:31]
    assert split_color_class(base, 1, 2, seed=4).colors == out.colors
    assert split_color_class(base, 1, 1, seed=0).colors == base.colors
    lg5 = levi_graph(5)
    assert is_proper(lg5, out)
    with pytest.raises(InvalidParameters):
        split_color_class(base, 5, 2, seed=0)


def test_split_partitions_class():
    base = Coloring.from_sequence([1] * 31 + [2] * 31)
    out = split_color_class(base, 1, 2, seed=7)
    merged = [v for v in range(62) if out.colors[v] != out.colors[40]]
    assert sorted(merged) == list(range(31))


def test_lg1_explicit_coloring():
    c = lg1_explicit_coloring(2, 6)
    assert sorted(len(cls) for cls in c.classes()) == [6, 6, 9]
    g = levi_order1(2, 6)
    assert is_proper(g, c)
    ok, _ = is_distinguishing(g, c)
    assert ok
    c37 = lg1_explicit_coloring(3, 7)
    g37 = levi_order1(3, 7)
    assert is_proper(g37, c37)
    assert is_distinguishing(g37, c37)[0]
    with pytest.raises(InvalidParameters):
        lg1_explicit_coloring(4, 9)
    with pytest.raises(InvalidParameters):
        lg1_explicit_coloring(2, 5)


def test_gs_plus_one_coloring():
    c = gs_plus_one_coloring(5, [1, 2], 3)
    assert c.k == 6
    assert sorted(len(cls) for cls in c.classes()) == [1, 4, 5, 5, 5, 5]
    g, _ = slope_graph(5, [1, 2])
    assert is_proper(g, c)
    with pytest.raises(InvalidParameters):
        gs_plus_one_coloring(5, [1, 2], 1)
    with pytest.raises(InvalidParameters):
        gs_plus_one_coloring(5, [1, 2], 2)


def test_krs_plus_one_coloring_validation():
    lines_two_colors = Coloring.from_sequence([1] * 31 + [2] * 16 + [3] * 15)
    with pytest.raises(InvalidParameters, match="line side must be monochromatic"):
        krs_plus_one_coloring(5, 2, 2, lines_two_colors)
    base = Coloring.from_sequence([1] * 16 + [2] * 15 + [3] * 31)
    c = krs_plus_one_coloring(5, 2, 2, base)
    assert c.k == 5
    from distchrom.families import levi_tensor_krs

    g, _ = levi_tensor_krs(5, 2, 2)
    assert is_proper(g, c)


def test_factor_induced_colorings_never_distinguish():
    k3 = complete_graph(3)
    for n in (2, 3, 4):
        wp = weak_power(k3, n)
        block = 3 ** (n - 1)
        classes = [[v for v in range(3**n) if v // block == i] for i in range(3)]
        c = Coloring.from_classes(3**n, classes)
        assert is_proper(wp, c)
        ok, witness = is_distinguishing(wp, c)
        assert not ok
        assert witness is not None and is_automorphism(wp, witness)
